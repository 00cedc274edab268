//go:build race

package serve

// raceEnabled reports a -race build, which changes allocation counts.
const raceEnabled = true
