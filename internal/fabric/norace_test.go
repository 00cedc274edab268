//go:build !race

package fabric_test

const raceEnabled = false
