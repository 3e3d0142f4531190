//go:build !race

package repro

// raceEnabled is false without the race detector; see race_test.go.
const raceEnabled = false
