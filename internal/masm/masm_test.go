package masm

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"masm/internal/sim"
	"masm/internal/storage"
	"masm/internal/table"
	"masm/internal/update"
)

// env bundles a loaded table, a MaSM store over it, and a reference model
// (plain map) used to verify that queries return exactly the fresh data.
type env struct {
	t      *testing.T
	hdd    *sim.Device
	ssd    *sim.Device
	tbl    *table.Table
	store  *Store
	oracle *Oracle
	model  map[uint64][]byte
	rng    *rand.Rand
	now    sim.Time
}

func body(key uint64, size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(key*31 + uint64(i))
	}
	return b
}

// newEnv loads nRows records with even keys 2,4,...,2n so odd keys are
// insertable (paper §4.1).
func newEnv(t *testing.T, nRows int, cfg Config) *env {
	t.Helper()
	return newEnvOn(t, nRows, cfg, func(_ string, be storage.Backend) storage.Backend { return be })
}

// newEnvOn is newEnv with each volume's backend ("data", "ssd") passed
// through wrap first, for tests that watch the I/O.
func newEnvOn(t *testing.T, nRows int, cfg Config, wrap func(name string, be storage.Backend) storage.Backend) *env {
	t.Helper()
	e := &env{
		t:      t,
		hdd:    sim.NewDevice(sim.Barracuda7200()),
		ssd:    sim.NewDevice(sim.IntelX25E()),
		oracle: &Oracle{},
		model:  make(map[uint64][]byte),
		rng:    rand.New(rand.NewSource(42)),
	}
	dataVol, err := storage.NewVolumeOn(e.hdd, 0, wrap("data", storage.NewMemBackend(4<<30)))
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]uint64, nRows)
	bodies := make([][]byte, nRows)
	for i := range keys {
		keys[i] = uint64(i+1) * 2
		bodies[i] = body(keys[i], 92)
		e.model[keys[i]] = bodies[i]
	}
	e.tbl, err = table.Load(dataVol, table.DefaultConfig(), keys, bodies)
	if err != nil {
		t.Fatal(err)
	}
	// Volume is over-provisioned 2x relative to the logical cache
	// capacity, giving 2-pass merges transient space (as real SSDs do).
	ssdVol, err := storage.NewVolumeOn(e.ssd, 0, wrap("ssd", storage.NewMemBackend(2*cfg.SSDCapacity)))
	if err != nil {
		t.Fatal(err)
	}
	e.store, err = NewStore(cfg, e.tbl, ssdVol, e.oracle, nil, wholeVolume(ssdVol), nil)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// wholeVolume is a single table's run allocator: the only partition of a
// SharedAlloc over vol, capped at the whole volume.
func wholeVolume(vol *storage.Volume) *Partition {
	return NewSharedAlloc(vol.Size()).Partition(0, vol.Size())
}

// smallConfig is a deliberately tiny geometry so flushes and merges
// trigger with few updates: SSD cache 4 MB of 4 KB pages → M = 32 pages,
// S = 16 pages (64 KB), query pages = 16.
func smallConfig() Config {
	cfg := DefaultConfig(4 << 20)
	cfg.SSDPage = 4 << 10
	cfg.Run.IOSize = 16 << 10
	cfg.Run.IndexGranularity = 4 << 10
	cfg.ScanGranularity = 4 << 10
	return cfg
}

// applyRandom feeds n random well-formed updates, mirroring them into the
// model.
func (e *env) applyRandom(n int) {
	for i := 0; i < n; i++ {
		maxKey := uint64(2 * (len(e.model) + 10))
		key := uint64(e.rng.Int63n(int64(maxKey))) + 1
		var rec update.Record
		switch e.rng.Intn(3) {
		case 0: // insert (or overwrite)
			rec = update.Record{Key: key, Op: update.Insert, Payload: body(key+uint64(i), 92)}
		case 1: // delete
			rec = update.Record{Key: key, Op: update.Delete}
		default: // modify
			rec = update.Record{Key: key, Op: update.Modify,
				Payload: update.EncodeFields([]update.Field{{Off: uint16(e.rng.Intn(80)), Value: []byte{byte(i), byte(i >> 8)}}})}
		}
		e.apply(rec)
	}
}

func (e *env) apply(rec update.Record) {
	t, err := e.store.ApplyAuto(e.now, rec)
	if err != nil {
		e.t.Fatal(err)
	}
	e.now = t
	// Mirror into model.
	old, exists := e.model[rec.Key]
	nb, ok := update.Apply(old, exists, &rec)
	if ok {
		e.model[rec.Key] = nb
	} else {
		delete(e.model, rec.Key)
	}
}

// verifyRange checks that a fresh query over [begin, end] returns exactly
// the model's content.
func (e *env) verifyRange(begin, end uint64) {
	e.t.Helper()
	q, err := e.store.NewQuery(e.now, begin, end, nil)
	if err != nil {
		e.t.Fatal(err)
	}
	defer q.Close()
	e.verifyQuery(q, begin, end, e.model)
}

// verifyQuery drains q, a query over [begin, end], and checks it returns
// exactly model's content in that range.
func (e *env) verifyQuery(q *Query, begin, end uint64, model map[uint64][]byte) {
	e.t.Helper()
	got := make(map[uint64][]byte)
	rows, err := collectRows(q)
	if err != nil {
		e.t.Fatal(err)
	}
	for _, r := range rows {
		if r.key < begin || r.key > end {
			e.t.Fatalf("row key %d outside [%d,%d]", r.key, begin, end)
		}
		if _, dup := got[r.key]; dup {
			e.t.Fatalf("duplicate key %d in query output", r.key)
		}
		got[r.key] = r.body
	}
	want := 0
	for k, v := range model {
		if k < begin || k > end {
			continue
		}
		want++
		gv, ok := got[k]
		if !ok {
			e.t.Fatalf("key %d missing from query output", k)
		}
		if !bytes.Equal(gv, v) {
			e.t.Fatalf("key %d body mismatch:\n got %v\nwant %v", k, gv[:8], v[:8])
		}
	}
	if len(got) != want {
		e.t.Fatalf("query returned %d rows, want %d", len(got), want)
	}
}

func TestQuerySeesFreshData(t *testing.T) {
	e := newEnv(t, 2000, smallConfig())
	e.applyRandom(300)
	e.verifyRange(0, ^uint64(0))
	e.verifyRange(100, 500)
	e.verifyRange(1, 1)
}

func TestFlushesCreateRunsAndStayCorrect(t *testing.T) {
	e := newEnv(t, 3000, smallConfig())
	e.applyRandom(5000) // far beyond the 64KB buffer: multiple flushes
	if e.store.Runs() == 0 {
		t.Fatal("expected materialized sorted runs")
	}
	if e.store.Stats().OnePassRuns == 0 {
		t.Fatal("no 1-pass runs recorded")
	}
	e.verifyRange(0, ^uint64(0))
	e.verifyRange(2000, 2600)
}

func TestTwoPassMergeBoundsRunCount(t *testing.T) {
	e := newEnv(t, 3000, smallConfig())
	// Force many small runs via manual flushes.
	for i := 0; i < 40; i++ {
		e.applyRandom(40)
		if _, err := e.store.Flush(e.now); err != nil {
			t.Fatal(err)
		}
	}
	if e.store.Runs() <= e.store.Config().QueryPages() {
		t.Skipf("only %d runs, need > %d query pages to exercise merge", e.store.Runs(), e.store.Config().QueryPages())
	}
	e.verifyRange(0, ^uint64(0))
	if got, max := e.store.Runs(), e.store.Config().QueryPages(); got > max {
		t.Fatalf("after query setup %d runs exceed %d query pages", got, max)
	}
	if e.store.Stats().TwoPassMerges == 0 {
		t.Fatal("no 2-pass merges recorded")
	}
}

func TestQuerySnapshotIgnoresLaterUpdates(t *testing.T) {
	e := newEnv(t, 1000, smallConfig())
	e.applyRandom(100)
	snapshot := make(map[uint64][]byte, len(e.model))
	for k, v := range e.model {
		snapshot[k] = v
	}
	q, err := e.store.NewQuery(e.now, 0, ^uint64(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Read a few rows, then apply more updates mid-scan. A body is valid
	// only until fn returns, so each one is copied.
	var rows []kv
	keep := func(key uint64, body []byte) { rows = append(rows, kv{key, append([]byte(nil), body...)}) }
	if ended, err := take(q, 10, keep); err != nil || ended {
		t.Fatalf("early end: %v", err)
	}
	e.applyRandom(200)
	if _, err := take(q, -1, keep); err != nil {
		t.Fatal(err)
	}
	q.Close()
	if len(rows) != len(snapshot) {
		t.Fatalf("snapshot query returned %d rows, want %d", len(rows), len(snapshot))
	}
	for _, r := range rows {
		if want, ok := snapshot[r.key]; !ok || !bytes.Equal(r.body, want) {
			t.Fatalf("key %d does not match snapshot", r.key)
		}
	}
	// And a fresh query sees the new state.
	e.verifyRange(0, ^uint64(0))
}

// TestScanViewSurvivesFlush: a flush mid-scan drains the buffer the query
// started over; the query's own copy keeps its view whole.
func TestScanViewSurvivesFlush(t *testing.T) {
	e := newEnv(t, 1000, smallConfig())
	e.applyRandom(150) // stays in memory (64KB buffer holds ~590 records)
	snapshot := make(map[uint64][]byte, len(e.model))
	for k, v := range e.model {
		snapshot[k] = v
	}
	q, err := e.store.NewQuery(e.now, 0, ^uint64(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	count := 0
	if ended, err := take(q, 5, func(uint64, []byte) { count++ }); err != nil || ended {
		t.Fatalf("early end: %v", err)
	}
	// Force a flush mid-scan.
	if _, err := e.store.Flush(e.now); err != nil {
		t.Fatal(err)
	}
	got := make(map[uint64][]byte)
	if _, err := take(q, -1, func(key uint64, body []byte) {
		count++
		got[key] = append([]byte(nil), body...)
	}); err != nil {
		t.Fatal(err)
	}
	if count != len(snapshot) {
		t.Fatalf("query crossed flush returned %d rows, want %d", count, len(snapshot))
	}
	for k, v := range got {
		if !bytes.Equal(snapshot[k], v) {
			t.Fatalf("key %d mismatch after the flush", k)
		}
	}
}

func TestMigrationFoldsUpdatesInPlace(t *testing.T) {
	e := newEnv(t, 3000, smallConfig())
	e.applyRandom(3000)
	rowsBefore := e.tbl.Rows()
	end, rep, err := e.store.Migrate(e.now)
	if err != nil {
		t.Fatal(err)
	}
	e.now = end
	if rep.RunsMigrated == 0 || rep.RecordsApplied == 0 {
		t.Fatalf("empty migration report: %+v", rep)
	}
	if e.store.Runs() != 0 {
		t.Fatalf("%d runs left after migration", e.store.Runs())
	}
	// All SSD extents for the migrated runs must be reclaimed (no
	// doubling of capacity requirements).
	if free, want := e.store.alloc.sa.pool.totalFree(), 2*e.store.cfg.SSDCapacity; free != want {
		t.Fatalf("SSD free = %d after migration, want full volume %d", free, want)
	}
	if e.tbl.Rows() == rowsBefore && rep.RowDelta != 0 {
		t.Fatal("row count not adjusted")
	}
	e.verifyRange(0, ^uint64(0))
	// Note: updates still in the in-memory buffer are not migrated; they
	// remain visible through the buffer copy (checked by verifyRange).
}

func TestMigrationBlocksOnOlderQueries(t *testing.T) {
	e := newEnv(t, 500, smallConfig())
	e.applyRandom(100)
	q, err := e.store.NewQuery(e.now, 0, ^uint64(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.store.Migrate(e.now); err != ErrActiveQueries {
		t.Fatalf("migrate with open older query: err=%v, want ErrActiveQueries", err)
	}
	q.Close()
	if _, _, err := e.store.Migrate(e.now); err != nil {
		t.Fatalf("migrate after close: %v", err)
	}
}

func TestConcurrentQueryDuringMigration(t *testing.T) {
	e := newEnv(t, 2000, smallConfig())
	e.applyRandom(2000)
	snapshot := make(map[uint64][]byte, len(e.model))
	for k, v := range e.model {
		snapshot[k] = v
	}
	mig, err := e.store.BeginMigration(e.now, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A query arriving after the migration timestamp: it must see all the
	// updates being migrated, whether it reads pages before or after the
	// rewrite.
	q, err := e.store.NewQuery(e.now, 0, ^uint64(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Read part of the range pre-migration...
	got := make(map[uint64][]byte)
	if ended, err := take(q, 500, func(key uint64, body []byte) {
		got[key] = append([]byte(nil), body...)
	}); err != nil || ended {
		t.Fatalf("early end at %d: %v", len(got), err)
	}
	// ...migration completes in the middle...
	end, _, err := mig.Run()
	if err != nil {
		t.Fatal(err)
	}
	e.now = end
	// ...and the query finishes on rewritten pages.
	rest, err := collectRows(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rest {
		if _, dup := got[r.key]; dup {
			t.Fatalf("duplicate key %d across migration boundary", r.key)
		}
		got[r.key] = r.body
	}
	q.Close()
	if len(got) != len(snapshot) {
		t.Fatalf("concurrent query saw %d rows, want %d", len(got), len(snapshot))
	}
	for k, v := range snapshot {
		if !bytes.Equal(got[k], v) {
			t.Fatalf("key %d mismatch across migration", k)
		}
	}
	// Pinned dead runs must be reclaimed once the query closed.
	if free, want := e.store.alloc.sa.pool.totalFree(), 2*e.store.cfg.SSDCapacity; free != want {
		t.Fatalf("SSD free = %d, want %d after pinned runs released", free, want)
	}
	e.verifyRange(0, ^uint64(0))
}

func TestPageStealingDefersFlush(t *testing.T) {
	cfg := smallConfig()
	e := newEnv(t, 500, cfg)
	// No queries are active, so all query pages are idle and stealable:
	// the buffer should grow past S pages without flushing.
	sBytes := cfg.SPages() * cfg.SSDPage
	rec := update.Record{Key: 2, Op: update.Modify,
		Payload: update.EncodeFields([]update.Field{{Off: 0, Value: []byte("ab")}})}
	perRec := update.EncodedSize(&update.Record{Key: 2, Op: update.Modify, Payload: rec.Payload})
	n := sBytes/perRec + 10 // just past the S-page capacity
	for i := 0; i < n; i++ {
		e.apply(rec)
	}
	st := e.store.Stats()
	if st.PagesStolen == 0 {
		t.Fatal("no pages stolen despite idle query pages")
	}
	if st.OnePassRuns != 0 {
		t.Fatalf("flushed %d runs despite stealable pages", st.OnePassRuns)
	}
	// Exhaust all query pages: eventually a flush must happen.
	total := cfg.MemoryPages() * cfg.SSDPage
	for i := 0; i < total/perRec+10; i++ {
		e.apply(rec)
	}
	if e.store.Stats().OnePassRuns == 0 {
		t.Fatal("no flush after exhausting stealable pages")
	}
	e.verifyRange(0, ^uint64(0))
}

func TestMergePolicyRespectsActiveQueries(t *testing.T) {
	e := newEnv(t, 500, smallConfig())
	// Two same-key updates with an active query between them must not be
	// collapsed at flush time (§3.5).
	e.apply(update.Record{Key: 4, Op: update.Modify,
		Payload: update.EncodeFields([]update.Field{{Off: 0, Value: []byte("A")}})})
	q, err := e.store.NewQuery(e.now, 0, ^uint64(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	e.apply(update.Record{Key: 4, Op: update.Modify,
		Payload: update.EncodeFields([]update.Field{{Off: 1, Value: []byte("B")}})})
	if _, err := e.store.Flush(e.now); err != nil {
		t.Fatal(err)
	}
	if got := e.store.Stats(); got.RecordWritesSSD != 2 {
		t.Fatalf("flush wrote %d records, want 2 (no collapse across active query)", got.RecordWritesSSD)
	}
	// The straddling query must see only the first modify.
	var seen []byte
	if err := q.Each(func(key uint64, body []byte) bool {
		if key == 4 {
			seen = append([]byte(nil), body...)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	q.Close()
	if seen == nil || seen[0] != 'A' || seen[1] == 'B' {
		t.Fatalf("straddling query saw wrong version: %q", seen[:2])
	}

	// Without active queries, duplicates collapse.
	e2 := newEnv(t, 500, smallConfig())
	e2.apply(update.Record{Key: 4, Op: update.Modify,
		Payload: update.EncodeFields([]update.Field{{Off: 0, Value: []byte("A")}})})
	e2.apply(update.Record{Key: 4, Op: update.Modify,
		Payload: update.EncodeFields([]update.Field{{Off: 1, Value: []byte("B")}})})
	if _, err := e2.store.Flush(e2.now); err != nil {
		t.Fatal(err)
	}
	if got := e2.store.Stats(); got.RecordWritesSSD != 1 {
		t.Fatalf("flush wrote %d records, want 1 (duplicates collapsed)", got.RecordWritesSSD)
	}
	e2.verifyRange(0, ^uint64(0))
}

func TestNoRandomSSDWritesEver(t *testing.T) {
	e := newEnv(t, 2000, smallConfig())
	for round := 0; round < 3; round++ {
		e.applyRandom(2000)
		e.verifyRange(0, ^uint64(0))
		end, _, err := e.store.Migrate(e.now)
		if err != nil {
			t.Fatal(err)
		}
		e.now = end
	}
	if rw := e.ssd.Stats().RandomWrites; rw != 0 {
		t.Fatalf("workload performed %d random SSD writes, want 0 (design goal 2)", rw)
	}
}

func TestWritesPerUpdateWithinTheorem(t *testing.T) {
	// Fill the cache while periodically opening queries (forcing 2-pass
	// merges); measured writes/update must stay within the Theorem 3.3
	// bound ≈ 2 − 0.25α² (plus slack for the discrete geometry).
	for _, alpha := range []float64{1, 1.5, 2} {
		cfg := smallConfig()
		cfg.Alpha = alpha
		e := newEnv(t, 2000, cfg)
		for e.store.Fill() < 0.85 {
			e.applyRandom(500)
			q, err := e.store.NewQuery(e.now, 0, 10, nil) // tiny range, forces setup path
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := q.Drain(); err != nil {
				t.Fatal(err)
			}
			q.Close()
		}
		got := e.store.Stats().WritesPerUpdate()
		bound := cfg.PredictedWritesPerUpdate()
		if got < 0.5 {
			t.Fatalf("alpha=%.1f: writes/update=%.3f implausibly low", alpha, got)
		}
		// Dedup of duplicate keys can push below 1; geometry slack above.
		if got > bound+0.35 {
			t.Fatalf("alpha=%.1f: writes/update=%.3f exceeds theorem bound %.3f", alpha, got, bound)
		}
	}
}

func TestAlphaTradeoffMonotone(t *testing.T) {
	// More memory (larger α) must not increase SSD writes per update.
	measure := func(alpha float64) float64 {
		cfg := smallConfig()
		cfg.Alpha = alpha
		e := newEnv(t, 2000, cfg)
		for e.store.Fill() < 0.85 {
			e.applyRandom(500)
			q, err := e.store.NewQuery(e.now, 0, 10, nil)
			if err != nil {
				t.Fatal(err)
			}
			q.Drain()
			q.Close()
		}
		return e.store.Stats().WritesPerUpdate()
	}
	w1, w2 := measure(1), measure(2)
	if w2 > w1+0.01 {
		t.Fatalf("writes/update at alpha=2 (%.3f) exceeds alpha=1 (%.3f)", w2, w1)
	}
}

func TestConfigDerivedQuantities(t *testing.T) {
	cfg := DefaultConfig(4 << 30) // the paper's 4GB cache, 64KB pages
	if got := cfg.SSDPages(); got != 65536 {
		t.Fatalf("SSD pages = %d, want 65536", got)
	}
	if got := cfg.MPages(); got != 256 {
		t.Fatalf("M = %d pages, want 256", got)
	}
	if got := cfg.MemoryBytes(); got != 16<<20 {
		t.Fatalf("MaSM-M memory = %d, want 16MB (paper §4.1)", got)
	}
	if got := cfg.SPages(); got != 128 {
		t.Fatalf("S = %d, want 0.5M = 128", got)
	}
	// Theorem 3.2: N_opt = 0.375M + 1 = 97.
	if got := cfg.NMerge(); got != 97 {
		t.Fatalf("N = %d, want 97", got)
	}
	if got := cfg.PredictedWritesPerUpdate(); got != 1.75 {
		t.Fatalf("predicted writes/update = %v, want 1.75", got)
	}
	cfg.Alpha = 2
	if got := cfg.PredictedWritesPerUpdate(); got != 1 {
		t.Fatalf("MaSM-2M predicted writes/update = %v, want 1", got)
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := DefaultConfig(4 << 20)
	cfg.Alpha = 3
	if err := cfg.Validate(); err == nil {
		t.Fatal("alpha=3 accepted")
	}
	cfg = DefaultConfig(4 << 20)
	cfg.SSDCapacity = 0
	if err := cfg.Validate(); err == nil {
		t.Fatal("zero capacity accepted")
	}
	cfg = DefaultConfig(100<<10 + 1)
	if err := cfg.Validate(); err == nil {
		t.Fatal("non-page-multiple capacity accepted")
	}
}

func TestExtentAllocator(t *testing.T) {
	a := newExtentAlloc(1000)
	o1, err := a.alloc(300)
	if err != nil || o1 != 0 {
		t.Fatalf("alloc1: %d %v", o1, err)
	}
	o2, _ := a.alloc(300)
	o3, _ := a.alloc(300)
	if _, err := a.alloc(200); err == nil {
		t.Fatal("over-allocation accepted")
	}
	a.release(o2, 300)
	if got, _ := a.alloc(300); got != o2 {
		t.Fatalf("first-fit reuse failed: got %d want %d", got, o2)
	}
	a.release(o1, 300)
	a.release(o2, 300)
	a.release(o3, 300)
	if a.totalFree() != 1000 {
		t.Fatalf("total free = %d, want 1000", a.totalFree())
	}
	// Full coalescing: the whole capacity must be allocatable as one
	// extent again.
	if off, err := a.alloc(1000); err != nil || off != 0 {
		t.Fatalf("coalesced alloc failed: %d %v", off, err)
	}
}

func TestOracleMonotonic(t *testing.T) {
	var o Oracle
	prev := int64(0)
	for i := 0; i < 1000; i++ {
		ts := o.Next()
		if ts <= prev {
			t.Fatalf("non-monotonic: %d after %d", ts, prev)
		}
		prev = ts
	}
	o.AdvanceTo(5000)
	if o.Next() != 5001 {
		t.Fatal("AdvanceTo broken")
	}
	o.AdvanceTo(10) // no-op
	if o.last.Load() < 5001 {
		t.Fatal("AdvanceTo moved backwards")
	}
}

func TestTwoInterleavedQueries(t *testing.T) {
	e := newEnv(t, 1500, smallConfig())
	e.applyRandom(800)
	want := len(e.model)
	q1, err := e.store.NewQuery(e.now, 0, ^uint64(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := e.store.NewQuery(e.now, 0, ^uint64(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	n1, n2 := 0, 0
	done1, done2 := false, false
	var err1, err2 error
	for !done1 || !done2 {
		if !done1 {
			if done1, err1 = take(q1, 1, func(uint64, []byte) { n1++ }); err1 != nil {
				t.Fatal(err1)
			}
		}
		if !done2 {
			if done2, err2 = take(q2, 1, func(uint64, []byte) { n2++ }); err2 != nil {
				t.Fatal(err2)
			}
		}
	}
	q1.Close()
	q2.Close()
	if n1 != want || n2 != want {
		t.Fatalf("interleaved queries saw %d and %d rows, want %d", n1, n2, want)
	}
}

func TestApplyRejectsBadRecords(t *testing.T) {
	e := newEnv(t, 100, smallConfig())
	huge := update.Record{Key: 2, Op: update.Insert, Payload: make([]byte, e.store.cfg.SPages()*e.store.cfg.SSDPage)}
	if _, err := e.store.ApplyAuto(0, huge); err == nil {
		t.Fatal("update larger than the update buffer accepted")
	}
	if st := e.store.Stats(); st.UpdatesAccepted != 0 {
		t.Fatalf("rejected update counted: %d accepted", st.UpdatesAccepted)
	}
}

func TestStatsAccounting(t *testing.T) {
	e := newEnv(t, 1000, smallConfig())
	e.applyRandom(3000)
	st := e.store.Stats()
	if st.UpdatesAccepted != 3000 {
		t.Fatalf("accepted = %d, want 3000", st.UpdatesAccepted)
	}
	if st.BytesWrittenSSD == 0 || st.RecordWritesSSD == 0 {
		t.Fatalf("no SSD write accounting: %+v", st)
	}
	if e.store.CachedBytes() == 0 {
		t.Fatal("no cached bytes")
	}
	if f := e.store.Fill(); f <= 0 || f > 1 {
		t.Fatalf("fill = %v", f)
	}
}

func ExampleStore_NewQuery() {
	hdd := sim.NewDevice(sim.Barracuda7200())
	ssd := sim.NewDevice(sim.IntelX25E())
	dataVol, _ := storage.NewVolume(hdd, 0, 1<<30)
	tbl, _ := table.Load(dataVol, table.DefaultConfig(),
		[]uint64{2, 4, 6}, [][]byte{[]byte("two"), []byte("four"), []byte("six")})
	ssdVol, _ := storage.NewVolume(ssd, 0, 4<<20)
	cfg := DefaultConfig(4 << 20)
	cfg.SSDPage = 4 << 10
	var oracle Oracle
	store, _ := NewStore(cfg, tbl, ssdVol, &oracle, nil, NewSharedAlloc(ssdVol.Size()).Partition(0, ssdVol.Size()), nil)
	store.ApplyAuto(0, update.Record{Key: 3, Op: update.Insert, Payload: []byte("three")})
	store.ApplyAuto(0, update.Record{Key: 4, Op: update.Delete})
	q, _ := store.NewQuery(0, 0, 10, nil)
	q.Each(func(key uint64, body []byte) bool {
		fmt.Printf("%d=%s\n", key, body)
		return true
	})
	q.Close()
	// Output:
	// 2=two
	// 3=three
	// 6=six
}

// migratePortion begins and runs one portion of the incremental sweep,
// reporting whether it completed the sweep.
func migratePortion(s *Store, at sim.Time, pages int) (sim.Time, bool, error) {
	m, err := s.BeginMigration(at, pages)
	if err != nil {
		return at, false, err
	}
	end, rep, err := m.Run()
	if err != nil {
		return at, false, err
	}
	return end, rep.SweepDone, nil
}

func TestIncrementalMigrationSweep(t *testing.T) {
	e := newEnv(t, 3000, smallConfig())
	e.applyRandom(3000)
	rowsPages := int(e.tbl.Pages())
	portion := rowsPages/5 + 1
	sweeps := 0
	steps := 0
	for sweeps == 0 {
		end, done, err := migratePortion(e.store, e.now, portion)
		if err != nil {
			t.Fatal(err)
		}
		e.now = end
		steps++
		if done {
			sweeps++
		}
		// Queries between portions must stay correct throughout.
		if steps%2 == 1 {
			e.verifyRange(0, ^uint64(0))
		}
		if steps > 20 {
			t.Fatal("sweep never completed")
		}
	}
	if steps < 3 {
		t.Fatalf("sweep completed in %d portions, want several", steps)
	}
	// All runs predating the sweep are gone.
	if e.store.Runs() != 0 {
		t.Fatalf("%d runs left after complete sweep", e.store.Runs())
	}
	e.verifyRange(0, ^uint64(0))
	// A second round with interleaved updates also converges.
	e.applyRandom(1000)
	for {
		end, done, err := migratePortion(e.store, e.now, portion)
		if err != nil {
			t.Fatal(err)
		}
		e.now = end
		if done {
			break
		}
	}
	e.verifyRange(0, ^uint64(0))
}

func TestIncrementalMigrationSpreadsCost(t *testing.T) {
	// Each portion must cost a fraction of a full migration. (Fixed
	// per-portion seek costs dominate tiny tables, so use a larger one.)
	full := newEnv(t, 20000, smallConfig())
	full.applyRandom(3000)
	start := full.now
	end, _, err := full.store.Migrate(start)
	if err != nil {
		t.Fatal(err)
	}
	fullCost := end.Sub(start)

	inc := newEnv(t, 20000, smallConfig())
	inc.applyRandom(3000)
	portion := int(inc.tbl.Pages())/10 + 1
	start = inc.now
	end, _, err = migratePortion(inc.store, start, portion)
	if err != nil {
		t.Fatal(err)
	}
	portionCost := end.Sub(start)
	if float64(portionCost) > 0.5*float64(fullCost) {
		t.Fatalf("one portion cost %v vs full migration %v: not spreading cost", portionCost, fullCost)
	}
}

func TestMigratePortionValidation(t *testing.T) {
	e := newEnv(t, 100, smallConfig())
	if _, err := e.store.BeginMigration(0, -1); err == nil {
		t.Fatal("negative portion accepted")
	}
	q, err := e.store.NewQuery(e.now, 0, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := migratePortion(e.store, e.now, 5); err != ErrActiveQueries {
		t.Fatalf("portion with open query: %v", err)
	}
	q.Close()
}

// TestMigratePortionAfterWholeMigration: a whole-table migration in
// mid-sweep rewrote every page, so it ends the sweep — the cursor returns
// to the table's first page and the next portion starts a fresh sweep with
// its own floor timestamp.
func TestMigratePortionAfterWholeMigration(t *testing.T) {
	e := newEnv(t, 3000, smallConfig())
	e.applyRandom(3000)
	portion := int(e.tbl.Pages())/5 + 1
	step := func() bool {
		end, done, err := migratePortion(e.store, e.now, portion)
		if err != nil {
			t.Fatal(err)
		}
		e.now = end
		return done
	}
	if step() || e.store.portionCursor == 0 {
		t.Fatalf("first portion left the cursor at key %d", e.store.portionCursor)
	}
	e.applyRandom(500)
	end, rep, err := e.store.Migrate(e.now)
	if err != nil {
		t.Fatal(err)
	}
	e.now = end
	if e.store.Runs() != 0 || e.store.portionCursor != 0 {
		t.Fatalf("after a whole-table migration: %d runs left, cursor at key %d", e.store.Runs(), e.store.portionCursor)
	}
	e.verifyRange(0, ^uint64(0))

	e.applyRandom(1000)
	wantCursor, _ := e.tbl.SpanBounds(0, portion)
	if step() || e.store.portionCursor != wantCursor || e.store.sweepFloorTS <= rep.MigTS {
		t.Fatalf("next portion did not start a fresh sweep: cursor at key %d (want %d), floor %d vs migration %d",
			e.store.portionCursor, wantCursor, e.store.sweepFloorTS, rep.MigTS)
	}
	for !step() {
	}
	if e.store.Runs() != 0 {
		t.Fatalf("%d runs left after the fresh sweep", e.store.Runs())
	}
	e.verifyRange(0, ^uint64(0))
}
