// Package sim provides the deterministic storage-time simulation substrate
// used throughout the MaSM reproduction.
//
// The MaSM paper's evaluation (SIGMOD 2011, §4) ran on a real 7200 rpm SATA
// disk and an Intel X25-E SSD. All of its reported results are shaped by
// first-order I/O behaviour: sequential bandwidth, seek interference between
// concurrent streams, random-read latency, and overlap of disk and SSD I/O.
// This package models exactly those effects on a virtual time axis so the
// experiments are deterministic and independent of the host machine.
//
// Time is virtual. Devices serialize their own requests on a private
// timeline; callers thread an issue time through each request and receive a
// Completion carrying the start and end times. Concurrent actors (a scan and
// an update stream, say) are interleaved by stepping whichever has the
// smaller local time.
package sim

import (
	"fmt"
	"time"
)

// Time is a point on the simulated timeline, in nanoseconds since the start
// of the experiment.
type Time int64

// Duration is a span of simulated time in nanoseconds. It is kept distinct
// from time.Duration only in name; conversions are free.
type Duration = time.Duration

// Common time constants re-exported for callers of this package.
const (
	Microsecond = time.Microsecond
	Millisecond = time.Millisecond
	Second      = time.Second
)

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time as a duration since the experiment start.
func (t Time) String() string { return Duration(t).String() }

// MaxTime returns the later of a and b.
func MaxTime(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// Completion describes when a device finished servicing one request.
type Completion struct {
	Start Time // when the device began servicing the request
	End   Time // when the last byte was transferred
}

func (c Completion) String() string {
	return fmt.Sprintf("[%v..%v]", c.Start, c.End)
}
