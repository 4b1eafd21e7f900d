package masm

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"testing"
)

// Every test of the package runs with freed run-read buffers poisoned
// (runBufs.put), so a record still read after its buffer was freed fails
// the test that reads it, rather than passing on bytes no later read
// happened to overwrite yet.
func init() { poisonFreed = true }

// runReadsEnv caches random updates over 30,000 rows in nine runs, each
// several run reads long, with nothing left in the buffer: a full-range
// query then reads only runs and pages. ssdReads counts the run reads.
func runReadsEnv(t *testing.T) (e *env, ssdReads *atomic.Int64) {
	t.Helper()
	e, ssdReads, _ = manyRunsEnv(t, 30000, 9, 1500)
	io := int64(e.store.cfg.Run.IOSize)
	for _, r := range e.store.runs {
		if r.Size < 3*io {
			t.Fatalf("run %d is %d bytes, fewer than three %d-byte reads", r.ID, r.Size, io)
		}
	}
	return e, ssdReads
}

// TestRunBufsHeldAtMostTwoPerRun: a full-range query over eight or more
// runs, each several reads long, holds at most two run-read buffers per
// run at any row: the one a run scanner reads into and one retired buffer
// waiting for the update window to pass it. Holding every buffer until
// Close, as the scan buffer is held, fails this.
func TestRunBufsHeldAtMostTwoPerRun(t *testing.T) {
	e, _ := runReadsEnv(t)
	q, err := e.store.NewQuery(e.now, 0, ^uint64(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	runs := len(q.runScans)
	rows, peak := 0, 0
	err = q.Each(func(key uint64, body []byte) bool {
		if want, ok := e.model[key]; !ok || !bytes.Equal(body, want) {
			t.Fatalf("key %d: body %x, want %x (in model: %v)", key, body, want, ok)
		}
		rows++
		peak = max(peak, q.runBufs.held)
		if q.runBufs.held > 2*runs {
			t.Fatalf("row %d: %d run-read buffers held over %d runs, want at most %d", rows, q.runBufs.held, runs, 2*runs)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows != len(e.model) {
		t.Fatalf("%d rows, want %d", rows, len(e.model))
	}
	t.Logf("%d rows over %d runs: at most %d run-read buffers held", rows, runs, peak)
	if peak < runs {
		t.Fatalf("at most %d run-read buffers held over %d runs: the runs were not read through them", peak, runs)
	}
}

// TestWarmScanAllocsFlatInRunReads: beside TestScanBuffersRecycled, a
// warm query's allocated bytes do not grow with its number of run reads.
// Over a quarter, half and all of a table cached in nine runs, each scan
// allocates under half of one run read, though the full one makes dozens
// of them.
func TestWarmScanAllocsFlatInRunReads(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled items at random")
	}
	e, ssdReads := runReadsEnv(t)
	io := e.store.cfg.Run.IOSize
	// One P, as in AllocsPerRun: pooled buffers put back on one P are
	// cached there for the next scan on it.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, end := range []uint64{15000, 30000, ^uint64(0)} {
		scan := func() {
			q, err := e.store.NewQuery(e.now, 0, end, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer q.Close()
			if _, _, err := q.Drain(); err != nil {
				t.Fatal(err)
			}
		}
		scan()
		const scans = 10
		var before, after runtime.MemStats
		reads0 := ssdReads.Load()
		runtime.ReadMemStats(&before)
		for i := 0; i < scans; i++ {
			scan()
		}
		runtime.ReadMemStats(&after)
		reads := (ssdReads.Load() - reads0) / scans
		if per := (after.TotalAlloc - before.TotalAlloc) / scans; per >= uint64(io/2) {
			t.Fatalf("a warm scan of [0, %d] makes %d run reads and allocates %d bytes, want under %d (half a run read)", end, reads, per, io/2)
		}
		t.Logf("a warm scan of [0, %d]: %d run reads, %d bytes allocated", end, reads, (after.TotalAlloc-before.TotalAlloc)/scans)
		if end == ^uint64(0) && reads < 36 {
			t.Fatalf("a full scan makes %d run reads, want dozens", reads)
		}
	}
}
