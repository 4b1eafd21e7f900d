package masm

import (
	"testing"

	"masm/internal/extsort"
	"masm/internal/obs"
)

// TestHotPathInstrumentationAllocs gates the store-level instrumentation:
// the exact metric sequences the write, scan and merge hot paths execute
// per operation must not allocate. The raw handle gates live in the obs
// package; this pins the composed sequences (and would catch a future
// edit that slips a label lookup or a fmt call into a hot site).
func TestHotPathInstrumentationAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments atomics with allocations")
	}
	m := NewStoreMetrics(obs.NewRegistry(), obs.L("table", "t"))

	// Write path: one accepted update (store.go applyNoLogLocked).
	var buffered int64
	if n := testing.AllocsPerRun(10000, func() {
		m.UpdatesAccepted.Inc()
		buffered += 72
		m.MemtableBytes.Set(buffered)
	}); n != 0 {
		t.Fatalf("write-path instrumentation allocates %v per update", n)
	}

	// Scan path: open + close bookkeeping (query.go); the per-row cost is
	// a plain integer add with no metric call at all.
	var vnanos int64
	if n := testing.AllocsPerRun(10000, func() {
		m.ScansStarted.Inc()
		m.ActiveQueries.Set(1)
		m.QueryPagesInUse.Set(3)
		vnanos += 1375
		m.ScanLatencyNanos.Observe(vnanos)
		m.ScanBytes.Observe(4096)
		m.ActiveQueries.Set(0)
		m.QueryPagesInUse.Set(0)
	}); n != 0 {
		t.Fatalf("scan-path instrumentation allocates %v per scan", n)
	}

	// Merge path: the per-record cost is plain int64 fields inside the
	// merger; the registry only sees one fold per completed merge.
	if n := testing.AllocsPerRun(10000, func() {
		m.addMerger(extsort.MergerStats{Comparisons: 900, Refills: 12, Records: 512})
	}); n != 0 {
		t.Fatalf("merge-stats fold allocates %v per merge", n)
	}
}

// TestStoreMetricsReconcile drives a store through its paces and checks
// CheckMetrics reconciles, then breaks a gauge and checks it does not.
func TestStoreMetricsReconcile(t *testing.T) {
	e := newEnv(t, 2000, smallConfig())
	e.applyRandom(500)
	if _, err := e.store.Flush(e.now); err != nil {
		t.Fatal(err)
	}
	if err := e.store.CheckMetrics(); err != nil {
		t.Fatalf("healthy store fails reconciliation: %v", err)
	}
	e.store.m.RunBytes.Add(1)
	if err := e.store.CheckMetrics(); err == nil {
		t.Fatal("skewed run-bytes gauge passed reconciliation")
	}
}
