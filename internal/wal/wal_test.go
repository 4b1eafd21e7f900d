package wal

import (
	"bytes"
	"math/rand"
	"testing"

	"masm/internal/masm"
	"masm/internal/sim"
	"masm/internal/storage"
	"masm/internal/table"
	"masm/internal/update"
)

func body(key uint64, size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(key*31 + uint64(i))
	}
	return b
}

// rig is a full system: table on HDD, update cache on SSD, log on HDD.
type rig struct {
	t      *testing.T
	tbl    *table.Table
	ssdVol *storage.Volume
	logVol *storage.Volume
	oracle *masm.Oracle
	log    *Log
	store  *masm.Store
	model  map[uint64][]byte
	now    sim.Time
}

// wholeVolume is a single table's run allocator: the only partition of a
// SharedAlloc over vol, capped at the whole volume.
func wholeVolume(vol *storage.Volume) *masm.Partition {
	return masm.NewSharedAlloc(vol.Size()).Partition(0, vol.Size())
}

func smallCfg() masm.Config {
	cfg := masm.DefaultConfig(4 << 20)
	cfg.SSDPage = 4 << 10
	cfg.Run.IOSize = 16 << 10
	cfg.Run.IndexGranularity = 4 << 10
	cfg.ScanGranularity = 4 << 10
	return cfg
}

func newRig(t *testing.T, nRows int) *rig {
	t.Helper()
	hdd := sim.NewDevice(sim.Barracuda7200())
	arena := storage.NewArena(hdd)
	dataVol, err := arena.Alloc(2 << 30)
	if err != nil {
		t.Fatal(err)
	}
	logVol, err := arena.Alloc(64 << 20)
	if err != nil {
		t.Fatal(err)
	}
	ssd := sim.NewDevice(sim.IntelX25E())
	ssdVol, err := storage.NewVolume(ssd, 0, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]uint64, nRows)
	bodies := make([][]byte, nRows)
	model := make(map[uint64][]byte, nRows)
	for i := range keys {
		keys[i] = uint64(i+1) * 2
		bodies[i] = body(keys[i], 92)
		model[keys[i]] = bodies[i]
	}
	tbl, err := table.Load(dataVol, table.DefaultConfig(), keys, bodies)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{t: t, tbl: tbl, ssdVol: ssdVol, logVol: logVol,
		oracle: &masm.Oracle{}, model: model}
	r.log = Open(logVol)
	r.store, err = masm.NewStore(smallCfg(), tbl, ssdVol, r.oracle, r.log.ForTable(0), wholeVolume(ssdVol), nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func (r *rig) apply(rec update.Record) {
	r.t.Helper()
	end, err := r.store.ApplyAuto(r.now, rec)
	if err != nil {
		r.t.Fatal(err)
	}
	r.now = end
	old, exists := r.model[rec.Key]
	nb, ok := update.Apply(old, exists, &rec)
	if ok {
		r.model[rec.Key] = nb
	} else {
		delete(r.model, rec.Key)
	}
}

func (r *rig) applyRandom(n int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		key := uint64(rng.Intn(2*len(r.model)+20)) + 1
		switch rng.Intn(3) {
		case 0:
			r.apply(update.Record{Key: key, Op: update.Insert, Payload: body(key+uint64(i), 92)})
		case 1:
			r.apply(update.Record{Key: key, Op: update.Delete})
		default:
			r.apply(update.Record{Key: key, Op: update.Modify,
				Payload: update.EncodeFields([]update.Field{{Off: uint16(rng.Intn(80)), Value: []byte{byte(i)}}})})
		}
	}
}

// crashRecover simulates a crash (all in-memory state dropped) and
// recovery from the log + SSD + table.
func (r *rig) crashRecover() {
	r.t.Helper()
	// Entries not yet synced are lost with the crash: model that by
	// syncing first only when the test wants durability of the tail. The
	// default path loses the unsynced tail, so sync explicitly here to
	// keep the reference model aligned.
	end, err := r.log.Sync(r.now)
	if err != nil {
		r.t.Fatal(err)
	}
	r.now = end
	// The §3.6 procedure: stream the log through the replay fold, resume
	// the oracle above every logged timestamp, restore the store. No new
	// log is attached, so there is no checkpoint step.
	rep := NewReplayer()
	now, err := ReadStream(r.logVol, r.now, func(e Entry) error {
		rep.Observe(e)
		return nil
	})
	if err != nil {
		r.t.Fatal(err)
	}
	st := rep.States()[0]
	if st == nil {
		st = &TableState{}
	}
	newOracle := &masm.Oracle{}
	newOracle.AdvanceTo(st.MaxTS)
	r.restore(newOracle, st.Runs, st.Pending, st.RedoMigration, now)
}

// restore rebuilds the rig's store over a fresh allocator with the
// surviving runs' extents re-registered, as the engine's recovery does.
func (r *rig) restore(oracle *masm.Oracle, runs []masm.RunMeta, pending []update.Record, redo []int64, at sim.Time) {
	r.t.Helper()
	store, err := masm.NewStore(smallCfg(), r.tbl, r.ssdVol, oracle, nil, wholeVolume(r.ssdVol), nil)
	if err != nil {
		r.t.Fatal(err)
	}
	if err := store.ReserveRunExtents(runs); err != nil {
		r.t.Fatal(err)
	}
	end, err := store.Restore(at, runs, nil, pending, redo)
	if err != nil {
		r.t.Fatal(err)
	}
	r.now = end
	r.store = store
	r.oracle = oracle
}

func (r *rig) verify() {
	r.t.Helper()
	q, err := r.store.NewQuery(r.now, 0, ^uint64(0), nil)
	if err != nil {
		r.t.Fatal(err)
	}
	defer q.Close()
	got := make(map[uint64][]byte)
	if err := q.Each(func(key uint64, body []byte) bool {
		got[key] = append([]byte(nil), body...)
		return true
	}); err != nil {
		r.t.Fatal(err)
	}
	if len(got) != len(r.model) {
		r.t.Fatalf("recovered store: %d rows, want %d", len(got), len(r.model))
	}
	for k, v := range r.model {
		if !bytes.Equal(got[k], v) {
			r.t.Fatalf("recovered store: key %d mismatch", k)
		}
	}
}

func TestLogRoundTrip(t *testing.T) {
	hdd := sim.NewDevice(sim.Barracuda7200())
	vol, _ := storage.NewVolume(hdd, 0, 16<<20)
	l := Open(vol).ForTable(0)
	now, err := l.LogUpdate(0, update.Record{TS: 5, Key: 9, Op: update.Insert, Payload: []byte("hi")})
	if err != nil {
		t.Fatal(err)
	}
	now, err = l.LogFlush(now, masm.RunMeta{RunID: 1, Off: 0, Size: 100, MaxTS: 5, Passes: 1, IndexSize: 80})
	if err != nil {
		t.Fatal(err)
	}
	now, err = l.LogMerge(now, masm.RunMeta{RunID: 2, Off: 200, Size: 300, MaxTS: 5, Passes: 2, IndexSize: 80}, []int64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	now, err = l.LogMigrationBegin(now, 7, []int64{2})
	if err != nil {
		t.Fatal(err)
	}
	now, err = l.LogMigrationPortion(now, 7, []int64{2})
	if err != nil {
		t.Fatal(err)
	}
	entries, _, err := readAll(vol, now)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 5 {
		t.Fatalf("replayed %d entries, want 5", len(entries))
	}
	if entries[0].Kind != KindUpdate || entries[0].Rec.Key != 9 || !bytes.Equal(entries[0].Rec.Payload, []byte("hi")) {
		t.Fatalf("entry 0: %+v", entries[0])
	}
	if entries[1].Kind != KindFlush || entries[1].Run.RunID != 1 || entries[1].Run.MaxTS != 5 {
		t.Fatalf("entry 1: %+v", entries[1])
	}
	if entries[2].Kind != KindMerge || len(entries[2].Consumed) != 2 {
		t.Fatalf("entry 2: %+v", entries[2])
	}
	if entries[3].Kind != KindMigrationBegin || entries[3].MigTS != 7 || len(entries[3].RunIDs) != 1 {
		t.Fatalf("entry 3: %+v", entries[3])
	}
	if entries[4].Kind != KindMigrationPortion || entries[4].MigTS != 7 || len(entries[4].Consumed) != 1 {
		t.Fatalf("entry 4: %+v", entries[4])
	}
}

func TestUnsyncedTailIsLost(t *testing.T) {
	hdd := sim.NewDevice(sim.Barracuda7200())
	vol, _ := storage.NewVolume(hdd, 0, 16<<20)
	l := Open(vol)
	now, _ := l.ForTable(0).LogUpdate(0, update.Record{TS: 1, Key: 1, Op: update.Delete})
	now, _ = l.Sync(now)
	if _, err := l.ForTable(0).LogUpdate(now, update.Record{TS: 2, Key: 2, Op: update.Delete}); err != nil {
		t.Fatal(err)
	}
	// No sync: crash now.
	entries, _, err := readAll(vol, now)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("replayed %d entries, want 1 (unsynced tail lost)", len(entries))
	}
}

func TestRecoverBufferOnly(t *testing.T) {
	r := newRig(t, 1000)
	r.applyRandom(100, 1) // stays in memory
	r.crashRecover()
	if r.store.Runs() != 0 && r.store.Stats().OnePassRuns == 0 {
		t.Fatalf("unexpected runs after recovery: %d", r.store.Runs())
	}
	r.verify()
}

func TestRecoverRunsAndBuffer(t *testing.T) {
	r := newRig(t, 2000)
	r.applyRandom(3000, 2) // multiple flushes + leftover buffer
	runsBefore := r.store.Runs()
	if runsBefore == 0 {
		t.Fatal("expected runs before crash")
	}
	r.crashRecover()
	if r.store.Runs() != runsBefore {
		t.Fatalf("recovered %d runs, want %d", r.store.Runs(), runsBefore)
	}
	r.verify()
	// The recovered store remains fully operational.
	r.applyRandom(500, 3)
	r.verify()
}

func TestRecoverAfterMerges(t *testing.T) {
	r := newRig(t, 2000)
	// Force 2-pass merges via many flushes + a query.
	for i := 0; i < 30; i++ {
		r.applyRandom(60, int64(i+10))
		if _, err := r.store.Flush(r.now); err != nil {
			t.Fatal(err)
		}
	}
	q, err := r.store.NewQuery(r.now, 0, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	q.Drain()
	q.Close()
	if r.store.Stats().TwoPassMerges == 0 {
		t.Skip("no merges triggered; geometry too large")
	}
	runsBefore := r.store.Runs()
	r.crashRecover()
	if r.store.Runs() != runsBefore {
		t.Fatalf("recovered %d runs, want %d", r.store.Runs(), runsBefore)
	}
	r.verify()
}

func TestRecoverCompletedMigration(t *testing.T) {
	r := newRig(t, 2000)
	r.applyRandom(2500, 4)
	end, _, err := r.store.Migrate(r.now)
	if err != nil {
		t.Fatal(err)
	}
	r.now = end
	r.applyRandom(200, 5) // post-migration activity
	r.crashRecover()
	r.verify()
}

func TestRecoverInterruptedMigration(t *testing.T) {
	r := newRig(t, 2000)
	r.applyRandom(2500, 6)
	// Begin a migration, let it run partially... we emulate "crash during
	// migration" by logging the begin record and applying only part of
	// the run set manually: simplest faithful approach is to log begin
	// and crash before Run() completes (no end record, pages untouched).
	mig, err := r.store.BeginMigration(r.now, 0)
	if err != nil {
		t.Fatal(err)
	}
	_ = mig // crash here: Run never executes
	r.crashRecover()
	// Recovery must have redone the migration: no runs left.
	if r.store.Runs() != 0 {
		t.Fatalf("%d runs after redo migration", r.store.Runs())
	}
	if r.store.Stats().Migrations != 1 {
		t.Fatalf("migrations after recovery = %d, want 1", r.store.Stats().Migrations)
	}
	r.verify()
}

func TestRecoverPartiallyAppliedMigration(t *testing.T) {
	// The harder variant: some pages were already rewritten with the
	// migration timestamp before the crash. Page timestamps must make the
	// redo idempotent.
	r := newRig(t, 2000)
	r.applyRandom(2500, 7)
	mig, err := r.store.BeginMigration(r.now, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Manually apply the migration to the first half of the table only,
	// emulating a crash mid-scan. We reuse the migration's own timestamp
	// by running a full Run() and then *re-crashing before the end record
	// is durable*... instead, simply run the whole migration but drop the
	// MigrationEnd record by crashing the log first: sync current state,
	// run migration, then recover from a log snapshot taken before the
	// end record. For determinism we copy the log volume's readable
	// prefix now.
	end, _, err := mig.Run()
	if err != nil {
		t.Fatal(err)
	}
	r.now = end
	// The log now contains begin+end; emulate the torn case by replaying
	// only up to the begin record: recovery with a truncated entry list.
	// (Directly exercising masm.Store.Restore's redo path.)
	entries, _, err := readAll(r.logVol, r.now)
	if err != nil {
		t.Fatal(err)
	}
	// Find the last MigrationBegin and drop everything after it.
	cut := -1
	for i, e := range entries {
		if e.Kind == KindMigrationBegin {
			cut = i
		}
	}
	if cut < 0 {
		t.Fatal("no migration begin logged")
	}
	truncated := entries[:cut+1]
	live := make(map[int64]masm.RunMeta)
	var pendingRecs []update.Record
	var redo []int64
	for _, e := range truncated {
		switch e.Kind {
		case KindUpdate:
			pendingRecs = append(pendingRecs, e.Rec)
		case KindFlush:
			live[e.Run.RunID] = e.Run
			kept := pendingRecs[:0]
			for _, rec := range pendingRecs {
				if rec.TS > e.Run.MaxTS {
					kept = append(kept, rec)
				}
			}
			pendingRecs = kept
		case KindMerge:
			for _, id := range e.Consumed {
				delete(live, id)
			}
			live[e.Run.RunID] = e.Run
		case KindMigrationBegin:
			redo = append([]int64(nil), e.RunIDs...)
		}
	}
	runs := make([]masm.RunMeta, 0, len(live))
	for _, rm := range live {
		runs = append(runs, rm)
	}
	r.restore(&masm.Oracle{}, runs, pendingRecs, redo, r.now)
	// Pages were already rewritten by the completed migration; the redo
	// applied the same updates again — page timestamps must have made
	// that harmless.
	r.verify()
}

// TestWarmLogAppendsAllocateNothing: an append, and the batch write it
// triggers every groupCommitBytes, reuse the log's buffer — the end marker
// goes in its spare capacity — so a warm log allocates nothing.
func TestWarmLogAppendsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is meaningless under the race detector")
	}
	vol, err := storage.NewVolume(sim.NewDevice(sim.Barracuda7200()), 0, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	// Touch the whole volume first: the in-memory backend allocates a
	// chunk on its first write, which is not the log's doing.
	if err := vol.PokeAt(make([]byte, vol.Size()), 0); err != nil {
		t.Fatal(err)
	}
	l := Open(vol)
	payload := body(1, 100)
	var now sim.Time
	appendBatch := func() {
		for i := 0; i < 2*groupCommitBytes/len(payload); i++ {
			if now, err = l.append(now, KindUpdate, payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendBatch() // warm: the header write and the buffer's growth
	written := l.written.Load()
	if n := testing.AllocsPerRun(20, appendBatch); n != 0 {
		t.Fatalf("appends and batch writes allocate %.1f times per run, want 0", n)
	}
	if l.written.Load() <= written {
		t.Fatal("no batch was written during the measured runs")
	}
}

// TestUnforcedSpanStaysBounded: appends never force on their own account,
// but the written-but-unforced span never passes maxUnforced, so a power
// cut leaves every intact frame within tornBatchSpan of the first bad one.
func TestUnforcedSpanStaysBounded(t *testing.T) {
	vol, err := storage.NewVolume(sim.NewDevice(sim.Barracuda7200()), 0, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	l := Open(vol)
	var now sim.Time
	payload := body(2, 300)
	total := 3 * maxUnforced
	for n := 0; n < total; n += frameHeaderSize + len(payload) {
		if now, err = l.append(now, KindUpdate, payload); err != nil {
			t.Fatal(err)
		}
		if span := l.written.Load() - l.durable.Load(); span > maxUnforced {
			t.Fatalf("after %d bytes: %d bytes written but unforced, bound %d", n, span, maxUnforced)
		}
	}
	if l.EndOffset() == headerSize {
		t.Fatal("the bound never forced the log")
	}
	if _, err := l.Sync(now); err != nil {
		t.Fatal(err)
	}
	if l.EndOffset() != l.written.Load() {
		t.Fatalf("after Sync the durable end %d trails the written end %d", l.EndOffset(), l.written.Load())
	}
}
