package masm

// The range scan's one merge loop, from its consumers: Table.Scan,
// Table.Query's callback pipeline and a transaction's overlay each stop
// exactly where their callback says, release what the query held, and
// allocate nothing per row.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"masm/internal/obs"
	"masm/internal/storage"
	"masm/internal/update"
)

// stopHistory loads n rows (even keys) into a fresh table of e and applies
// a random history over keys 1..2n+10 — inserts, deletes and modifies,
// part flushed to runs and part left in the buffer, none migrated — so a
// scan folds update groups between plain data rows. It returns the table,
// the state the history leaves and the keys it touched.
func stopHistory(t *testing.T, e *Engine, seed int64, n int) (*Table, map[uint64][]byte, map[uint64]bool) {
	t.Helper()
	tbl := loadTable(t, e, testTable, n, TableOptions{})
	model := &facadeModel{rows: make(map[uint64][]byte, n)}
	for k := uint64(2); k <= uint64(2*n); k += 2 {
		model.rows[k] = []byte(fmt.Sprintf("%s-%06d-padding-padding-padding", testTable, k))
	}
	touched := make(map[uint64]bool)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n/2; i++ {
		key := uint64(rng.Intn(2*n+10)) + 1
		var err error
		switch rng.Intn(4) {
		case 0:
			body := []byte(fmt.Sprintf("new-%06d-%05d-abcdefghijklmnopqrstuvwxyz", key, i))
			model.apply(insertRecord(key, body))
			err = tbl.Insert(key, body)
		case 1:
			model.apply(update.Record{Key: key, Op: update.Delete})
			err = tbl.Delete(key)
		default:
			val := []byte(fmt.Sprintf("%03d", i%1000))
			rec, _ := modifyRecord(key, rng.Intn(8), val)
			model.apply(rec)
			f, _ := rec.Fields()
			err = tbl.Modify(key, int(f[0].Off), val)
		}
		if err != nil {
			t.Fatal(err)
		}
		touched[key] = true
		if i%(n/6) == n/12 {
			if err := tbl.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return tbl, model.rows, touched
}

// TestScanEarlyStop stops a scan at every row of random histories, on
// both backends: wherever fn returns false — on a plain data row, a
// folded row, the data row just before an update group or the last row —
// Table.Scan and Table.Query deliver exactly the full scan's first k rows,
// QuerySpec.Limit = k delivers the same, the query's reader registration
// and run pins are released, and a migration afterwards is not refused.
func TestScanEarlyStop(t *testing.T) {
	for _, eng := range getEngines {
		t.Run(eng.name, func(t *testing.T) {
			reached := map[string]bool{"plain": false, "folded": false, "before a group": false, "last": false}
			for seed := int64(1); seed <= 2; seed++ {
				scanEarlyStop(t, eng.open, seed, reached)
			}
			for what, ok := range reached {
				if !ok {
					t.Errorf("no stop landed on a %s row", what)
				}
			}
		})
	}
}

func scanEarlyStop(t *testing.T, open func(*testing.T, Config) *Engine, seed int64, reached map[string]bool) {
	cfg := DefaultConfig()
	cfg.CacheBytes = 256 << 10
	e := open(t, cfg)
	defer e.Close()
	tbl, state, touched := stopHistory(t, e, seed, 300)
	if tbl.Stats().Runs == 0 {
		t.Fatal("the history flushed no run")
	}

	var all []kvRow
	if err := tbl.Scan(0, ^uint64(0), func(k uint64, b []byte) bool {
		all = append(all, kvRow{k, append([]byte(nil), b...)})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(all) != len(state) {
		t.Fatalf("seed %d: full scan %d rows, model %d", seed, len(all), len(state))
	}
	for _, r := range all {
		if !bytes.Equal(r.body, state[r.key]) {
			t.Fatalf("seed %d: key %d: %q, model %q", seed, r.key, r.body, state[r.key])
		}
	}

	// groupAfter reports an update group with a key in (lo, hi].
	groupAfter := func(lo, hi uint64) bool {
		for k := range touched {
			if k > lo && k <= hi {
				return true
			}
		}
		return false
	}
	active := func() int64 {
		return e.Metrics().Gauge("masm_active_queries", obs.L("table", testTable))
	}
	for k := 1; k <= len(all); k++ {
		row := all[k-1]
		next := ^uint64(0)
		if k < len(all) {
			next = all[k].key
		}
		reached["plain"] = reached["plain"] || !touched[row.key]
		reached["folded"] = reached["folded"] || touched[row.key]
		reached["before a group"] = reached["before a group"] || !touched[row.key] && groupAfter(row.key, next)
		reached["last"] = reached["last"] || k == len(all)

		for _, run := range []struct {
			name string
			scan func(fn func(uint64, []byte) bool) error
			stop bool // fn stops at the k-th row; else the limit does
		}{
			{"Scan", func(fn func(uint64, []byte) bool) error { return tbl.Scan(0, ^uint64(0), fn) }, true},
			{"Query", func(fn func(uint64, []byte) bool) error {
				return tbl.Query(QuerySpec{Begin: 0, End: ^uint64(0)}, fn)
			}, true},
			{"Query limit", func(fn func(uint64, []byte) bool) error {
				return tbl.Query(QuerySpec{Begin: 0, End: ^uint64(0), Limit: int64(k)}, fn)
			}, false},
		} {
			var got []kvRow
			err := run.scan(func(key uint64, body []byte) bool {
				got = append(got, kvRow{key, append([]byte(nil), body...)})
				return !run.stop || len(got) < k
			})
			if err != nil {
				t.Fatalf("seed %d, %s stopped at row %d: %v", seed, run.name, k, err)
			}
			if !sameRows(got, all[:k]) {
				t.Fatalf("seed %d, %s stopped at row %d (key %d): %d rows, not the scan's first %d", seed, run.name, k, row.key, len(got), k)
			}
			if n := active(); n != 0 {
				t.Fatalf("seed %d, %s stopped at row %d: %d queries still registered", seed, run.name, k, n)
			}
		}
	}
	if err := tbl.Migrate(); err != nil {
		t.Fatalf("seed %d: migration after the stopped scans: %v", seed, err)
	}
}

// TestTxScanOverlay: a transaction that writes one key several times
// (insert, modify, delete, insert) among many other keys reads, through
// EngineTx.Scan and EngineTx.Get, exactly what applying its writes in
// order to its snapshot gives — whole, over a sub-range and stopped early.
func TestTxScanOverlay(t *testing.T) {
	const n = 500
	tbl := openTable(t, "", smallCfg(), evenRows(n, paddedRow))
	e := tbl.eng
	defer e.Close()
	model := &facadeModel{rows: make(map[uint64][]byte)}
	for k := uint64(2); k <= 2*n; k += 2 {
		model.rows[k] = []byte(fmt.Sprintf(paddedRow, k))
	}
	// Committed history under the snapshot, part of it flushed to a run.
	rng := rand.New(rand.NewSource(44))
	for i := 0; i < 300; i++ {
		key := uint64(rng.Intn(2*n)) + 1
		body := []byte(fmt.Sprintf("committed-%06d-%04d", key, i))
		model.apply(insertRecord(key, body))
		if err := tbl.Insert(key, body); err != nil {
			t.Fatal(err)
		}
		if i == 150 {
			if err := tbl.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}

	tx, err := e.BeginTx(TxSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	write := func(rec update.Record) {
		t.Helper()
		model.apply(rec)
		switch rec.Op {
		case update.Insert:
			err = tx.Insert(testTable, rec.Key, rec.Payload)
		case update.Delete:
			err = tx.Delete(testTable, rec.Key)
		default:
			f, _ := rec.Fields()
			err = tx.Modify(testTable, rec.Key, int(f[0].Off), f[0].Value)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	modify := func(key uint64, off int, val string) update.Record {
		rec, _ := modifyRecord(key, off, []byte(val))
		return rec
	}
	// The chains: on an absent key, on a loaded key, and ending deleted.
	const absent, loaded, gone = 301, 400, 402
	write(insertRecord(absent, []byte("first-insert-of-301")))
	write(modify(absent, 0, "MOD"))
	write(modify(absent, 4, "ified"))
	write(update.Record{Key: absent, Op: update.Delete})
	write(insertRecord(absent, []byte("second-insert-of-301")))
	write(modify(absent, 1, "x"))
	write(modify(loaded, 0, "AB"))
	write(modify(loaded, 3, "CD"))
	write(insertRecord(gone, []byte("replaced")))
	write(update.Record{Key: gone, Op: update.Delete})
	if string(model.rows[absent]) != "sxcond-insert-of-301" || model.rows[gone] != nil {
		t.Fatalf("the model misread the chains: %q, %q", model.rows[absent], model.rows[gone])
	}
	written := map[uint64]bool{absent: true, loaded: true, gone: true}
	for i := 0; i < 3000; i++ {
		key := uint64(rng.Intn(2*n+200)) + 1
		switch rng.Intn(4) {
		case 0, 1:
			write(insertRecord(key, []byte(fmt.Sprintf("tx-%06d-%04d-padding", key, i))))
		case 2:
			write(update.Record{Key: key, Op: update.Delete})
		default:
			write(modify(key, rng.Intn(6), fmt.Sprintf("%02d", i%100)))
		}
		written[key] = true
	}

	want := func(begin, end uint64) []kvRow {
		var out []kvRow
		for k := begin; k <= end && k <= 2*n+200; k++ {
			if b, ok := model.rows[k]; ok {
				out = append(out, kvRow{k, b})
			}
		}
		return out
	}
	scan := func(begin, end uint64, stop int) []kvRow {
		t.Helper()
		var got []kvRow
		if err := tx.Scan(testTable, begin, end, func(k uint64, b []byte) bool {
			got = append(got, kvRow{k, append([]byte(nil), b...)})
			return stop == 0 || len(got) < stop
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}
	full := want(0, ^uint64(0))
	if got := scan(0, ^uint64(0), 0); !sameRows(got, full) {
		t.Fatalf("full scan: %d rows, want %d", len(got), len(full))
	}
	if got, w := scan(250, 700, 0), want(250, 700); !sameRows(got, w) {
		t.Fatalf("scan of [250, 700]: %d rows, want %d", len(got), len(w))
	}
	for _, stop := range []int{1, 2, 17, 150, 400, len(full)} {
		if got := scan(0, ^uint64(0), stop); !sameRows(got, full[:stop]) {
			t.Fatalf("scan stopped at row %d: %d rows, not the first %d", stop, len(got), stop)
		}
	}
	for k := uint64(1); k <= 2*n+200; k++ {
		got, ok, err := tx.Get(testTable, k)
		w, wok := model.rows[k]
		if err != nil || ok != wok || !bytes.Equal(got, w) {
			t.Fatalf("Get(%d) = (%q, %v, %v), want (%q, %v); written by the transaction: %v", k, got, ok, err, w, wok, written[k])
		}
	}
}

// TestScanAllocsFlat: what a Table.Scan or a Table.Query allocates per
// call does not grow with the rows it hands on. The scans read the same
// runs and buffer and differ only in how many main-data rows and scan
// batches they cover: about 100 rows against the whole table.
func TestScanAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is meaningless under the race detector")
	}
	const n = 60000
	tbl := openTable(t, "", smallCfg(), evenRows(n, paddedRow))
	defer tbl.eng.Close()
	for k := uint64(1); k <= 199; k += 2 { // updates in both scans' ranges
		if err := tbl.Insert(k, []byte(fmt.Sprintf(paddedRow, k))); err != nil {
			t.Fatal(err)
		}
		if k == 101 {
			if err := tbl.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	spec := QuerySpec{Project: &Projection{Off: 4, Width: 6}, Limit: 1 << 40,
		Filter: func(k uint64, b []byte) bool { return k%3 != 0 && len(b) == 6 }}
	for _, tc := range []struct {
		name string
		scan func(end uint64, fn func(uint64, []byte) bool) error
	}{
		{"Scan", func(end uint64, fn func(uint64, []byte) bool) error { return tbl.Scan(0, end, fn) }},
		{"Query", func(end uint64, fn func(uint64, []byte) bool) error {
			s := spec
			s.End = end
			return tbl.Query(s, fn)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rows := 0
			count := func(uint64, []byte) bool { rows++; return true }
			allocs := func(end uint64) (float64, int) {
				rows = 0
				avg := testing.AllocsPerRun(10, func() {
					if err := tc.scan(end, count); err != nil {
						t.Fatal(err)
					}
				})
				return avg, rows / 11
			}
			small, smallRows := allocs(200)
			large, largeRows := allocs(^uint64(0))
			if largeRows < 100*smallRows {
				t.Fatalf("the scans handed on %d and %d rows: too close to compare", smallRows, largeRows)
			}
			t.Logf("%d rows: %v allocations; %d rows: %v", smallRows, small, largeRows, large)
			if large > small {
				t.Fatalf("%d rows cost %v allocations, %d rows %v: allocation grows with rows", largeRows, large, smallRows, small)
			}
		})
	}
}

// TestQueryPipelineProjectReslices: the projection hands fn a reslice of
// the body the merge produced, capped at the column, never a copy; a body
// too short for the column projects to empty.
func TestQueryPipelineProjectReslices(t *testing.T) {
	var got []byte
	fn := (&QuerySpec{Project: &Projection{Off: 3, Width: 4}}).pipeline(func(_ uint64, b []byte) bool {
		got = b
		return true
	})
	body := []byte("0123456789")
	fn(1, body)
	if string(got) != "3456" || &got[0] != &body[3] || cap(got) != 4 {
		t.Fatalf("projected %q (cap %d), want a reslice of %q at 3 capped at 4", got, cap(got), body)
	}
	fn(2, []byte("01"))
	if len(got) != 0 {
		t.Fatalf("a short body projected to %q, want empty", got)
	}
}

// runPipeline feeds rows numbered 0..rows-1 with bodies "body-%04d"
// through spec's pipeline and returns the keys it kept and the row at which
// it stopped the scan (-1 if it never did).
func runPipeline(spec QuerySpec, rows int) (kept []uint64, stoppedAt int) {
	fn := spec.pipeline(func(k uint64, _ []byte) bool { kept = append(kept, k); return true })
	for i := 0; i < rows; i++ {
		if !fn(uint64(i), []byte(fmt.Sprintf("body-%04d", i))) {
			return kept, i
		}
	}
	return kept, -1
}

// TestQueryPipelineFilterThenLimit: the filter sees projected bodies and
// the limit counts only the rows the filter keeps, stopping the scan on
// its last one.
func TestQueryPipelineFilterThenLimit(t *testing.T) {
	spec := QuerySpec{Project: &Projection{Off: 5, Width: 4},
		Filter: func(k uint64, b []byte) bool { return string(b) == fmt.Sprintf("%04d", k) && k%3 == 0 }}
	if kept, stop := runPipeline(spec, 30); len(kept) != 10 || kept[9] != 27 || stop != -1 {
		t.Fatalf("filter kept %v (stopped at %d), want the 10 multiples of 3 and no stop", kept, stop)
	}
	spec.Limit = 7
	if kept, stop := runPipeline(spec, 100); len(kept) != 7 || stop != 18 {
		t.Fatalf("limit 7 kept %v and stopped at row %d, want 7 rows and a stop at row 18", kept, stop)
	}
}

// TestQueryPipelineLimit: a limit of k keeps the first k rows and stops the
// scan on the k-th, a limit past the end keeps every row, and zero is no
// limit.
func TestQueryPipelineLimit(t *testing.T) {
	if kept, stop := runPipeline(QuerySpec{Limit: 7}, 100); len(kept) != 7 || kept[6] != 6 || stop != 6 {
		t.Fatalf("limit 7 kept %v and stopped at row %d, want rows 0-6 and a stop at row 6", kept, stop)
	}
	if kept, stop := runPipeline(QuerySpec{Limit: 7}, 3); len(kept) != 3 || stop != -1 {
		t.Fatalf("limit past the end kept %d rows (stopped at %d)", len(kept), stop)
	}
	if kept, stop := runPipeline(QuerySpec{}, 50); len(kept) != 50 || stop != -1 {
		t.Fatalf("limit 0 kept %d of 50 rows (stopped at %d)", len(kept), stop)
	}
}

// TestQueryPipelineZeroAllocs gates the pipeline's hot path: a composed
// project → filter → limit must not allocate per row.
func TestQueryPipelineZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is meaningless under the race detector")
	}
	pred := update.NewPred([]update.KeyRange{{Lo: 0, Hi: 1 << 20}})
	spec := QuerySpec{Project: &Projection{Off: 2, Width: 4}, Limit: 1 << 40,
		Filter: func(k uint64, b []byte) bool { return pred.Match(k) && len(b) == 4 }}

	t.Run("pipeline", func(t *testing.T) {
		rows := 0
		fn := spec.pipeline(func(uint64, []byte) bool { rows++; return true })
		body := []byte("body-0000")
		key := uint64(0)
		if avg := testing.AllocsPerRun(10000, func() {
			key++
			if !fn(key, body) {
				t.Fatal("pipeline stopped")
			}
		}); avg != 0 {
			t.Fatalf("the pipeline allocates %.1f per row, want 0", avg)
		}
		if rows != 10001 {
			t.Fatalf("the pipeline kept %d of 10001 rows", rows)
		}
	})
}

// failReads is a backend whose reads fail once armed.
type failReads struct {
	storage.Backend
	armed atomic.Bool
}

var errReadFault = errors.New("injected read fault")

func (f *failReads) ReadAt(p []byte, off int64) error {
	if f.armed.Load() {
		return errReadFault
	}
	return f.Backend.ReadAt(p, off)
}

// TestQueryErrorPropagates: a main-data read that fails under a projected,
// filtered, limited query is the query's error, and the query is released.
func TestQueryErrorPropagates(t *testing.T) {
	data := &failReads{}
	e, err := OpenEngineDir(t.TempDir(), EngineDirOptions{Config: fileCfg(4 << 20),
		WrapBackend: func(name string, be storage.Backend) storage.Backend {
			if name != dataFileName {
				return be
			}
			data.Backend = be
			return data
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tbl := loadTable(t, e, testTable, 1000, TableOptions{})
	if err := tbl.Insert(7, []byte("an update to fold")); err != nil {
		t.Fatal(err)
	}
	data.armed.Store(true)
	rows := 0
	err = tbl.Query(QuerySpec{End: ^uint64(0), Project: &Projection{Width: 2}, Limit: 500,
		Filter: func(uint64, []byte) bool { return true }}, func(uint64, []byte) bool { rows++; return true })
	if !errors.Is(err, errReadFault) || rows != 0 {
		t.Fatalf("query over failing reads: %d rows, err %v; want the read's error", rows, err)
	}
	if n := e.Metrics().Gauge("masm_active_queries", obs.L("table", testTable)); n != 0 {
		t.Fatalf("%d queries still registered after the failed query", n)
	}
}
