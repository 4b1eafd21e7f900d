//go:build !race

package runfile

const raceEnabled = false
