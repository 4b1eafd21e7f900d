//go:build race

package masm

// raceEnabled reports whether the race detector is compiled in; the
// zero-allocation gates skip under it (the detector instruments atomic
// ops with allocations of its own).
const raceEnabled = true
