//go:build race

package fabric_test

// raceEnabled reports a -race build, which changes allocation counts.
const raceEnabled = true
