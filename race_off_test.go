//go:build !race

package masm

const raceEnabled = false
