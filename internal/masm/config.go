// Package masm implements the paper's contribution: the Materialized
// Sort-Merge algorithms (MaSM-2M, MaSM-M and the generalized MaSM-αM) for
// caching data-warehouse updates on SSDs and merging them into table range
// scans with low overhead, small memory footprint, no random SSD writes,
// few total SSD writes, in-place migration, and ACID support (paper §3).
package masm

import (
	"fmt"
	"math"

	"masm/internal/runfile"
)

// Config describes one MaSM instance. The derived quantities follow the
// paper's Table 1: with an SSD update cache of ‖SSD‖ pages, two-pass
// external sorting needs M = √‖SSD‖ pages of memory; MaSM-αM allocates
// αM pages total, S of them for buffering incoming updates.
type Config struct {
	// SSDCapacity is the size of the SSD update cache in bytes (the paper
	// uses 1–10 % of the main data size).
	SSDCapacity int64
	// SSDPage is the unit in which memory and SSD space are accounted
	// (the paper's 64 KB effective SSD page).
	SSDPage int
	// Alpha selects the memory/write trade-off: memory is αM pages.
	// α = 2 is MaSM-2M (minimal writes, 1 per update record);
	// α = 1 is MaSM-M (half the memory, ~1.75 writes per record).
	// Valid range is [2/∛M, 2] (paper §3.4).
	Alpha float64
	// Run configures the physical layout of materialized sorted runs.
	Run runfile.Config
	// ScanGranularity is the effective run-index granularity used by
	// range scans, in bytes: Run.IndexGranularity for the paper's
	// fine-grain configuration, Run.IOSize for the coarse-grain one.
	ScanGranularity int
}

// migrateBatch is the number of bytes of table pages migrated per
// read-modify-write round trip; larger batches amortize the seek between
// the read and write positions.
const migrateBatch = 4 << 20

// DefaultConfig returns a MaSM-M configuration for an update cache of the
// given size, mirroring the paper's defaults (64 KB SSD I/O, fine-grain
// index). When to migrate is the caller's policy, not the store's.
func DefaultConfig(ssdCapacity int64) Config {
	rc := runfile.DefaultConfig()
	return Config{
		SSDCapacity:     ssdCapacity,
		SSDPage:         rc.IOSize,
		Alpha:           1,
		Run:             rc,
		ScanGranularity: rc.IndexGranularity,
	}
}

// Validate checks internal consistency.
func (c *Config) Validate() error {
	if c.SSDCapacity <= 0 {
		return fmt.Errorf("masm: non-positive SSD capacity %d", c.SSDCapacity)
	}
	if c.SSDPage <= 0 || c.SSDCapacity%int64(c.SSDPage) != 0 {
		return fmt.Errorf("masm: SSD capacity %d not a multiple of page %d", c.SSDCapacity, c.SSDPage)
	}
	m := c.MPages()
	if m < 2 {
		return fmt.Errorf("masm: SSD cache of %d pages too small (M=%d)", c.SSDPages(), m)
	}
	lo := 2 / math.Cbrt(float64(m))
	if c.Alpha < lo-1e-9 || c.Alpha > 2+1e-9 {
		return fmt.Errorf("masm: alpha %.3f outside [2/∛M=%.3f, 2]", c.Alpha, lo)
	}
	if c.ScanGranularity <= 0 {
		return fmt.Errorf("masm: non-positive scan granularity")
	}
	return nil
}

// SSDPages returns ‖SSD‖, the cache capacity in SSD pages.
func (c Config) SSDPages() int64 { return c.SSDCapacity / int64(c.SSDPage) }

// MPages returns M = √‖SSD‖ (pages), rounded down.
func (c Config) MPages() int { return int(math.Sqrt(float64(c.SSDPages()))) }

// MemoryPages returns the total memory allocation ⌈αM⌉ in pages.
func (c Config) MemoryPages() int {
	return int(math.Ceil(c.Alpha * float64(c.MPages())))
}

// MemoryBytes returns the total memory allocation in bytes: Table 1's αM,
// the update buffer plus the scan pages. Like the run indexes, the runs'
// key filters (runfile/point.go) are DRAM outside it: 10 bits per cached
// record, ≈1.1 % of the cached bytes at ~110-byte records — about 750 KB
// under a full 64 MiB cache — reported as masm_run_filter_bytes. So is
// each open query's copy of the buffered records it may see: 48-byte
// record headers (payloads are shared), under S pages of encoded records
// since setup flushes at S pages first — about 0.4·S pages at 100-byte
// bodies, ≤ ~105 KB per open query at a 64 MiB cache.
func (c Config) MemoryBytes() int { return c.MemoryPages() * c.SSDPage }

// SPages returns S_opt = 0.5·αM, the pages dedicated to buffering
// incoming updates (Theorem 3.3). At least one page.
func (c Config) SPages() int {
	s := int(math.Round(0.5 * c.Alpha * float64(c.MPages())))
	if s < 1 {
		s = 1
	}
	if s > c.MemoryPages()-1 && c.MemoryPages() > 1 {
		s = c.MemoryPages() - 1
	}
	return s
}

// QueryPages returns the pages available to range-scan processing
// (one per materialized sorted run being scanned).
func (c Config) QueryPages() int { return c.MemoryPages() - c.SPages() }

// NMerge returns N_opt, the number of earliest 1-pass runs merged into one
// 2-pass run when the run count would exceed the query pages
// (Theorem 3.3: N = (1/⌊4/α²⌋)·(2/α − 0.5α)·M + 1; for α=1 this is
// 0.375M + 1).
func (c Config) NMerge() int {
	a := c.Alpha
	den := math.Floor(4 / (a * a))
	if den < 1 {
		den = 1
	}
	n := int(math.Round((2/a-0.5*a)*float64(c.MPages())/den)) + 1
	if n < 2 {
		n = 2
	}
	if max := c.MemoryPages() - c.SPages(); n > max && max >= 2 {
		n = max
	}
	return n
}

// PredictedWritesPerUpdate returns the paper's closed-form worst-case
// average number of SSD writes per update record, ≈ 2 − 0.25α²
// (Theorem 3.3; 1.75 + 2/M for α=1, 1 for α=2).
func (c Config) PredictedWritesPerUpdate() float64 {
	return 2 - 0.25*c.Alpha*c.Alpha
}
