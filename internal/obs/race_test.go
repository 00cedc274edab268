//go:build race

package obs

// raceEnabled reports a -race build, which changes allocation counts.
const raceEnabled = true
