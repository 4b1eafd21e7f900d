//go:build race

package storage

// raceEnabled gates allocation-count assertions: the race detector
// instruments allocations and makes AllocsPerRun meaningless.
const raceEnabled = true
