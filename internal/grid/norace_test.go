//go:build !race

package grid

// raceEnabled is false without the race detector; see race_test.go.
const raceEnabled = false
