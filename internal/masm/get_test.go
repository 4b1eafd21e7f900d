package masm

import (
	"bytes"
	"sync/atomic"
	"testing"

	"masm/internal/storage"
	"masm/internal/update"
)

// countingBackend counts the read calls that reach a volume's backend.
type countingBackend struct {
	storage.Backend
	reads *atomic.Int64
}

func (c countingBackend) ReadAt(p []byte, off int64) error {
	c.reads.Add(1)
	return c.Backend.ReadAt(p, off)
}

// manyRunsEnv builds a store with nRuns one-pass runs of perRun updates
// each over a table of nRows rows, and the read counters of its two
// volumes. Lookups never merge runs, so the run count stays put.
func manyRunsEnv(t *testing.T, nRows, nRuns, perRun int) (e *env, ssdReads, dataReads *atomic.Int64) {
	t.Helper()
	ssdReads, dataReads = new(atomic.Int64), new(atomic.Int64)
	e = newEnvOn(t, nRows, smallConfig(), func(name string, be storage.Backend) storage.Backend {
		if name == "ssd" {
			return countingBackend{be, ssdReads}
		}
		return countingBackend{be, dataReads}
	})
	for i := 0; i < nRuns; i++ {
		e.applyRandom(perRun)
		end, err := e.store.Flush(e.now)
		if err != nil {
			t.Fatal(err)
		}
		e.now = end
	}
	if got := e.store.Runs(); got != nRuns {
		t.Fatalf("%d runs, want %d", got, nRuns)
	}
	return e, ssdReads, dataReads
}

// TestGetReadCounts is the number that keeps the key filters alive: with
// 40 runs whose key spans all cover the table, a lookup reads one window
// in each run whose filter admits the key — and no other — plus exactly
// one data page, and over uniform keys that is under two run reads a Get
// (it is one per run, 40, without the filters).
func TestGetReadCounts(t *testing.T) {
	const nRows, nRuns, gets = 20000, 40, 2000
	e, ssdReads, dataReads := manyRunsEnv(t, nRows, nRuns, 500)
	m := e.store.m
	gets0, filter0 := m.Gets.Value(), m.RunFilterBytes.Value()
	if filter0 == 0 {
		t.Fatal("masm_run_filter_bytes is 0 with 40 live runs")
	}
	var runReads int64
	for i := 0; i < gets; i++ {
		key := uint64(e.rng.Int63n(2*nRows+20)) + 1
		ssd0, data0 := ssdReads.Load(), dataReads.Load()
		probed0, filtered0 := m.GetRunsProbed.Value(), m.GetRunsFiltered.Value()
		row, found, end, err := e.store.Get(e.now, key)
		if err != nil {
			t.Fatal(err)
		}
		e.now = end
		if want, ok := e.model[key]; found != ok || !bytes.Equal(row.Body, want) {
			t.Fatalf("Get(%d) = (%x, %v), model (%x, %v)", key, row.Body, found, want, ok)
		}
		probed, filtered := m.GetRunsProbed.Value()-probed0, m.GetRunsFiltered.Value()-filtered0
		if probed+filtered != nRuns {
			t.Fatalf("Get(%d): %d runs probed + %d filtered, want %d in all", key, probed, filtered, nRuns)
		}
		if got := ssdReads.Load() - ssd0; got != probed {
			t.Fatalf("Get(%d): %d run reads for %d admitting runs", key, got, probed)
		}
		if got := dataReads.Load() - data0; got != 1 {
			t.Fatalf("Get(%d): %d data-page reads, want 1", key, got)
		}
		runReads += probed
	}
	if d := m.Gets.Value() - gets0; d != gets {
		t.Fatalf("masm_gets moved by %d over %d lookups", d, gets)
	}
	if m.ScansStarted.Value() != 0 {
		t.Fatal("a Get counted in masm_scans_started")
	}
	if mean := float64(runReads) / gets; mean > 2 {
		t.Fatalf("%.2f run reads per Get over %d runs, want ≤ 2", mean, nRuns)
	} else {
		t.Logf("%.2f run reads per Get over %d runs", mean, nRuns)
	}
	if err := e.store.CheckMetrics(); err != nil {
		t.Fatal(err)
	}
	// The gauge follows the run set down as well as up.
	if _, _, err := e.store.Migrate(e.now); err != nil {
		t.Fatal(err)
	}
	if got := m.RunFilterBytes.Value(); got != 0 || e.store.Runs() != 0 {
		t.Fatalf("after migrating every run: %d runs, masm_run_filter_bytes %d", e.store.Runs(), got)
	}
}

// TestGetAllocations: a whole lookup over 40 runs allocates only the body
// it returns — no page buffer or decoded page, no scanners, no merge tree,
// no per-run buffers.
func TestGetAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	e, _, _ := manyRunsEnv(t, 20000, 40, 500)
	// A loaded key no cached update touches, and a key nobody ever wrote.
	var plain uint64
	for k := uint64(2); plain == 0; k += 2 {
		q, err := e.store.NewQuery(e.now, k, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		q.Each(func(_ uint64, b []byte) bool {
			if bytes.Equal(b, body(k, 92)) {
				plain = k
			}
			return false
		})
		q.Close()
	}
	for name, tc := range map[string]struct {
		key   uint64
		found bool
		max   float64
	}{"untouched row": {plain, true, 1}, "absent key": {2*20000 + 1001, false, 0}} {
		n := testing.AllocsPerRun(200, func() {
			_, found, _, err := e.store.Get(e.now, tc.key)
			if err != nil || found != tc.found {
				t.Fatalf("Get(%d) = found %v, err %v", tc.key, found, err)
			}
		})
		if n > tc.max {
			t.Errorf("%s: %v allocs per Get, want ≤ %v", name, n, tc.max)
		}
	}
}

// TestGetSeesUnsortedTailAndRestoredRecords: the memtable probe must find
// a key's records in the sorted prefix and in the unsorted tail, and put
// them in timestamp order even when a failed flush restored older records
// behind newer ones.
func TestGetSeesUnsortedTailAndRestoredRecords(t *testing.T) {
	e := newEnv(t, 100, smallConfig())
	const key = 51 // odd: not loaded
	e.apply(update.Record{Key: key, Op: update.Insert, Payload: []byte("first-version")})
	e.verifyRange(key, key) // a scan: sorts the buffer, the insert joins the sorted prefix
	e.apply(update.Record{Key: key, Op: update.Modify,
		Payload: update.EncodeFields([]update.Field{{Off: 0, Value: []byte("FIRST")}})})
	check := func(want string) {
		t.Helper()
		row, found, _, err := e.store.Get(e.now, key)
		if err != nil || !found || string(row.Body) != want {
			t.Fatalf("Get = (%q, %v, %v), want %q", row.Body, found, err, want)
		}
	}
	check("FIRST-version")
	// A drain and restore, as a flush that found no SSD space does it: both
	// records re-enter as tail, behind a newer one.
	drained := e.store.buf.Drain(e.oracle.Next())
	e.apply(update.Record{Key: key, Op: update.Modify,
		Payload: update.EncodeFields([]update.Field{{Off: 6, Value: []byte("VERSION")}})})
	e.store.buf.Restore(drained)
	check("FIRST-VERSION")
}
