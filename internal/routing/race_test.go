//go:build race

package routing

// raceEnabled reports a -race build, which changes allocation counts.
const raceEnabled = true
