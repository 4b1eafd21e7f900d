//go:build !race

package proto

// raceEnabled gates allocation-count assertions: the race detector
// instruments allocations and makes AllocsPerRun meaningless.
const raceEnabled = false
