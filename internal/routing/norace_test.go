//go:build !race

package routing

const raceEnabled = false
