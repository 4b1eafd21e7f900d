package masm

import (
	"bytes"
	"sync/atomic"
	"testing"

	"masm/internal/memtable"
	"masm/internal/runfile"
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

// TestGetSkipsSupersededRuns: a visible insert, replace or delete of the
// key supersedes every older record of it, so a lookup reads no run whose
// records are all older than the newest such record it has found. Each
// case counts the run reads exactly (the test key lies above every other
// key, so a run without it is ruled out by its key span, never by a
// filter false positive) and holds Get to Scan(k, k) and to the model.
func TestGetSkipsSupersededRuns(t *testing.T) {
	const nRows, nRuns, perRun = 2000, 20, 100
	const key = 1 << 20 // above every key applyRandom draws; not loaded
	ins := func(v byte) update.Record {
		return update.Record{Key: key, Op: update.Insert, Payload: bytes.Repeat([]byte{v}, 92)}
	}
	mod := update.Record{Key: key, Op: update.Modify,
		Payload: update.EncodeFields([]update.Field{{Off: 3, Value: []byte("MOD")}})}
	del := update.Record{Key: key, Op: update.Delete}

	// flushRun makes one run of perRun random updates and then recs.
	flushRun := func(e *env, recs ...update.Record) {
		e.applyRandom(perRun)
		for _, r := range recs {
			e.apply(r)
		}
		end, err := e.store.Flush(e.now)
		if err != nil {
			t.Fatal(err)
		}
		e.now = end
	}
	// stamped buffers rec at a timestamp of the caller's choosing.
	stamped := func(e *env, rec update.Record) {
		e.store.mu.Lock()
		end, err := e.store.applyNoLogLocked(e.now, rec)
		e.store.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		e.now = end
		e.mirror(rec)
	}
	merge := func(e *env) {
		e.store.mu.Lock()
		end, err := e.store.mergeRunsLocked(e.now, 2)
		e.store.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		e.now = end
	}

	for _, tc := range []struct {
		name  string
		build func(e *env)
		reads int64
	}{
		{"inserted in every run", func(e *env) {
			for i := 0; i < nRuns; i++ {
				flushRun(e, ins(byte(i)))
			}
		}, 1},
		{"modify over an insert one run older", func(e *env) {
			for i := 0; i < nRuns-1; i++ {
				flushRun(e, ins(byte(i)))
			}
			flushRun(e, mod)
		}, 2},
		{"newest record a delete", func(e *env) {
			for i := 0; i < nRuns-1; i++ {
				flushRun(e, ins(byte(i)))
			}
			flushRun(e, del)
		}, 1},
		{"insert in the memtable", func(e *env) {
			for i := 0; i < nRuns; i++ {
				flushRun(e, ins(byte(i)), mod)
			}
			e.apply(ins(0xEE))
		}, 0},
		{"tie at the terminal timestamp", func(e *env) {
			// Only a run strictly older than the terminal record is skipped:
			// whether a record at its very timestamp folds before or after it
			// is the source order's call, which the skip does not consult.
			for i := 0; i < nRuns-1; i++ {
				flushRun(e, ins(byte(i)))
			}
			e.applyRandom(perRun)
			ts := e.oracle.Next()
			m := mod
			m.TS = ts
			stamped(e, m)
			end, err := e.store.Flush(e.now)
			if err != nil {
				t.Fatal(err)
			}
			e.now = end
			i := ins(0xEE)
			i.TS = ts
			stamped(e, i)
		}, 1},
		{"tie between two runs", func(e *env) {
			// The later run's modify shares the insert's timestamp; the fold
			// still takes the runs in their order, insert first.
			for i := 0; i < nRuns-2; i++ {
				flushRun(e, ins(byte(i)))
			}
			ts := e.oracle.Next()
			i := ins(0xEE)
			i.TS = ts
			stamped(e, i)
			flushRun(e)
			m := mod
			m.TS = ts
			stamped(e, m)
			flushRun(e)
		}, 2},
		{"merged run ahead of an older run", func(e *env) {
			// A and B merge into AB; a restart restores the runs in ID order,
			// [C, AB]; D joins, and C and D merge where C sat: [CD, AB]. CD's
			// modify is newer than AB's insert, though AB is the later run.
			flushRun(e)            // A
			flushRun(e, ins(0xAB)) // B
			flushRun(e)            // C
			merge(e)
			restartStore(t, e)
			flushRun(e, mod) // D
			merge(e)
			if e.store.Runs() != 2 || e.store.runs[0].Passes != 2 || e.store.runs[0].MaxTS < e.store.runs[1].MaxTS {
				t.Fatalf("run set is not [CD, AB]: %d runs", e.store.Runs())
			}
		}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, ssdReads, _ := manyRunsEnv(t, nRows, 0, 0)
			tc.build(e)
			m := e.store.m
			runs := int64(e.store.Runs())
			ssd0, probed0, filtered0 := ssdReads.Load(), m.GetRunsProbed.Value(), m.GetRunsFiltered.Value()
			row, found, end, err := e.store.Get(e.now, key)
			if err != nil {
				t.Fatal(err)
			}
			e.now = end
			reads := ssdReads.Load() - ssd0
			probed, filtered := m.GetRunsProbed.Value()-probed0, m.GetRunsFiltered.Value()-filtered0
			if reads != tc.reads || probed != reads || probed+filtered != runs {
				t.Errorf("%d run reads, %d probed, %d filtered of %d runs; want %d reads", reads, probed, filtered, runs, tc.reads)
			}
			if tc.reads == 0 {
				if n := pinnedRuns(e.store, key); n != 0 {
					t.Errorf("%d runs pinned with the key's insert in the memtable", n)
				}
			}
			want, ok := e.model[key]
			if found != ok || !bytes.Equal(row.Body, want) {
				t.Fatalf("Get = (%x, %v), model (%x, %v)", row.Body, found, want, ok)
			}
			e.verifyRange(key, key)
		})
	}
}

// pinnedRuns is the number of runs the latched half of a lookup of key
// pins.
func pinnedRuns(s *Store, key uint64) int {
	sc := new(getScratch)
	s.mu.Lock()
	defer s.mu.Unlock()
	qts := s.oracle.Next()
	s.pinLocked(key, runfile.KeyHash(key), qts, sc)
	s.dropReaderLocked(qts)
	for _, r := range sc.runs {
		s.unpinRunLocked(r.ID)
	}
	return len(sc.runs)
}

// restartStore replaces e's store with a fresh one restored as recovery
// restores it: the runs from their metadata, in ID order, and the
// buffered records replayed.
func restartStore(t *testing.T, e *env) {
	t.Helper()
	old := e.store
	var metas []RunMeta
	for _, r := range old.runs {
		metas = append(metas, RunMeta{RunID: r.ID, Off: r.Off, Size: r.Size, MaxTS: r.MaxTS, Passes: r.Passes,
			Format: runfile.FormatVersion, CRC: r.CRC, IndexSize: r.IndexSize})
	}
	s, err := NewStore(old.cfg, e.tbl, old.ssd, e.oracle, nil, wholeVolume(old.ssd), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ReserveRunExtents(metas); err != nil {
		t.Fatal(err)
	}
	if e.now, err = s.Restore(e.now, metas, nil, old.buf.Drain(memtable.MaxDrain), nil); err != nil {
		t.Fatal(err)
	}
	e.store = s
}
