//go:build race

package exp

// raceEnabled reports a -race build, whose detector drops sync.Pool
// items at random, so pooled scratch sometimes allocates.
const raceEnabled = true
