//go:build race

package grid

// raceEnabled reports that the race detector is on: sync.Pool then
// drops a quarter of what is Put, so zero-allocation assertions on
// pooled buffers do not hold.
const raceEnabled = true
