// Package lsm models the log-structured merge-tree alternative the paper
// analyzes and rejects (§2.3, Fig 5(c)): cached updates flow from an
// in-memory C0 tree through SSD-resident trees C1..Ch of geometrically
// increasing size via rolling merges. The package holds the paper's
// analytic write-amplification model; its tests check the model against a
// simulated tree.
//
// LSM fixes IU's random-read problem — every level is sorted and can be
// range-scanned — but at the cost of writing each update entry many times:
// roughly r+1 times per level for levels 1..h−1 and (r+1)/2 for level h,
// where r is the size ratio between adjacent levels. With the paper's
// 4 GB flash and 16 MB memory, a 2-level LSM rewrites each entry ≈128
// times and even the write-optimal 4-level configuration ≈17 times,
// cutting the SSD's lifetime by an order of magnitude (design goal 3).
package lsm

import "math"

// Config fixes an LSM-on-SSD update cache.
type Config struct {
	// MemBytes is the capacity of the in-memory C0 tree.
	MemBytes int
	// SSDBytes is the flash budget for C1..Ch.
	SSDBytes int64
	// Levels is h, the number of SSD-resident trees.
	Levels int
	// IOSize is the sequential I/O unit for rolling merges and scans.
	IOSize int
}

// Ratio returns r, the size ratio between adjacent levels, chosen so the
// levels form a geometric progression filling the flash budget:
// r^h = SSDBytes/MemBytes.
func (c Config) Ratio() float64 {
	return math.Pow(float64(c.SSDBytes)/float64(c.MemBytes), 1/float64(c.Levels))
}

// TheoreticalWritesPerUpdate returns the paper's §2.3 estimate of how many
// times an update entry is written to the SSD: (r+1) for each of levels
// 1..h−1 plus (r+1)/2 for level h.
func (c Config) TheoreticalWritesPerUpdate() float64 {
	r := c.Ratio()
	return float64(c.Levels-1)*(r+1) + (r+1)/2
}

// OptimalLevels returns the h ≥ 1 that minimizes
// TheoreticalWritesPerUpdate for the given memory and flash budgets.
func OptimalLevels(memBytes int, ssdBytes int64) int {
	best, bestW := 1, math.Inf(1)
	for h := 1; h <= 16; h++ {
		c := Config{MemBytes: memBytes, SSDBytes: ssdBytes, Levels: h}
		if w := c.TheoreticalWritesPerUpdate(); w < bestW {
			best, bestW = h, w
		}
	}
	return best
}
