//go:build race

package runfile

// raceEnabled reports whether the race detector is compiled in; the
// zero-allocation gates skip under it.
const raceEnabled = true
