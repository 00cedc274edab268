//go:build race

package topo

// raceEnabled reports a -race build, which changes allocation counts.
const raceEnabled = true
