package masm

// Crash-recovery harness for the file backend: open a database in a real
// directory, run a workload, stop it the hard way (no clean shutdown, no
// final sync — the in-process kill -9), reopen the same directory, and
// verify that every committed update survived and that full scans match a
// reference model. Variants inject a truncated and a corrupted redo-log
// tail, which recovery must tolerate by replaying the intact prefix.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"masm/internal/storage"
)

// baseRow is the body format of the file-backed tests' base table.
const baseRow = "base row %08d payload................"

// fileCfg is DefaultConfig with a cacheBytes update cache.
func fileCfg(cacheBytes int64) Config {
	cfg := DefaultConfig()
	cfg.CacheBytes = cacheBytes
	return cfg
}

// verifyDir checks a reopened database against the base table and the
// committed/uncommitted update maps: every committed key must be present
// with its exact body; every row a full scan returns must be explained by
// the base table, a committed update, or an uncommitted update that
// happened to reach the disk before the crash (allowed: crashes lose the
// unsynced tail, they do not roll it back).
func verifyDir(t *testing.T, tbl *Table, baseRows TableOptions, committed, uncommitted map[uint64][]byte) {
	t.Helper()
	base := make(map[uint64][]byte, len(baseRows.Keys))
	for i, k := range baseRows.Keys {
		base[k] = baseRows.Bodies[i]
	}
	for k, want := range committed {
		got, ok, err := tbl.Get(k)
		if err != nil {
			t.Fatalf("Get(%d): %v", k, err)
		}
		if !ok {
			t.Fatalf("committed key %d lost by crash recovery", k)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("committed key %d: got %q, want %q", k, got, want)
		}
	}
	var prev uint64
	first := true
	err := tbl.Scan(0, ^uint64(0), func(key uint64, body []byte) bool {
		if !first && key <= prev {
			t.Fatalf("scan keys not strictly increasing: %d after %d", key, prev)
		}
		prev, first = key, false
		want, ok := committed[key]
		if !ok {
			want, ok = uncommitted[key]
		}
		if !ok {
			want, ok = base[key]
		}
		if !ok {
			t.Fatalf("scan returned key %d that no one ever wrote", key)
		}
		if !bytes.Equal(body, want) {
			t.Fatalf("scan key %d: got %q, want %q", key, body, want)
		}
		return true
	})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
}

// TestOpenDirCreateCloseReopen is the clean-shutdown round trip: every
// acknowledged update — synced or not — survives a Close, including runs
// flushed to the cache file and rows migrated into the main data.
func TestOpenDirCreateCloseReopen(t *testing.T) {
	dir := t.TempDir()
	base := evenRows(3000, baseRow)
	tbl := openTable(t, dir, fileCfg(1<<20), base)
	committed := make(map[uint64][]byte)
	for i := 0; i < 800; i++ {
		k := uint64(2*i + 1) // odd keys: fresh inserts
		body := []byte(fmt.Sprintf("inserted %06d", k))
		if err := tbl.Insert(k, body); err != nil {
			t.Fatal(err)
		}
		committed[k] = body
	}
	if err := tbl.Flush(); err != nil { // materialize a run in cache.runs
		t.Fatal(err)
	}
	for i := 800; i < 1000; i++ {
		k := uint64(2*i + 1)
		body := []byte(fmt.Sprintf("inserted %06d", k))
		if err := tbl.Insert(k, body); err != nil {
			t.Fatal(err)
		}
		committed[k] = body
	}
	if err := tbl.eng.Close(); err != nil {
		t.Fatal(err)
	}

	tbl2 := openTable(t, dir, fileCfg(1<<20), TableOptions{})
	if got := tbl2.Stats().Rows; got != int64(len(base.Keys)) {
		t.Fatalf("reopened table reports %d rows, want %d", got, len(base.Keys))
	}
	verifyDir(t, tbl2, base, committed, nil)

	// The reopened database accepts new work and survives another cycle.
	if err := tbl2.Insert(999_999, []byte("second life")); err != nil {
		t.Fatal(err)
	}
	committed[999_999] = []byte("second life")
	if err := tbl2.eng.Close(); err != nil {
		t.Fatal(err)
	}
	tbl3 := openTable(t, dir, fileCfg(1<<20), TableOptions{})
	defer tbl3.eng.Close()
	verifyDir(t, tbl3, base, committed, nil)
}

// TestFileCrashRecoveryConcurrent is the acceptance harness: a file-backed
// database under a concurrent workload is hard-stopped with no shutdown at
// all, then reopened from the same directory. Every batch whose Sync
// returned before the stop must be fully readable; full scans must match
// the model.
func TestFileCrashRecoveryConcurrent(t *testing.T) {
	dir := t.TempDir()
	base := evenRows(4000, baseRow)
	tbl := openTable(t, dir, fileCfg(2<<20), base)

	const writers = 4
	const batch = 25
	type result struct {
		committed   map[uint64][]byte
		uncommitted map[uint64][]byte
	}
	results := make([]result, writers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res := result{
				committed:   make(map[uint64][]byte),
				uncommitted: make(map[uint64][]byte),
			}
			defer func() { results[w] = res }()
			<-start
			// Each writer inserts odd keys from a private range, so every
			// key is written exactly once across the whole test.
			next := uint64(1_000_001 + 2_000_000*w)
			for b := 0; ; b++ {
				staged := make(map[uint64][]byte, batch)
				for i := 0; i < batch; i++ {
					k := next
					next += 2
					body := []byte(fmt.Sprintf("w%d b%d i%d key %d", w, b, i, k))
					if err := tbl.Insert(k, body); err != nil {
						// The crash tore this batch off mid-flight; records
						// already applied may or may not survive.
						for kk, vv := range staged {
							res.uncommitted[kk] = vv
						}
						return
					}
					staged[k] = body
				}
				if err := tbl.eng.Sync(); err != nil {
					for kk, vv := range staged {
						res.uncommitted[kk] = vv
					}
					return
				}
				for kk, vv := range staged {
					res.committed[kk] = vv
				}
			}
		}(w)
	}
	close(start)
	// Let the workload run, then pull the plug mid-flight.
	for tbl.Stats().UpdatesAccepted < writers*batch*6 {
		runtime.Gosched()
	}
	if err := tbl.eng.HardStop(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	committed := make(map[uint64][]byte)
	uncommitted := make(map[uint64][]byte)
	for _, res := range results {
		for k, v := range res.committed {
			committed[k] = v
		}
		for k, v := range res.uncommitted {
			uncommitted[k] = v
		}
	}
	if len(committed) == 0 {
		t.Fatal("workload committed nothing before the crash; harness too fast")
	}

	tbl2 := openTable(t, dir, fileCfg(2<<20), TableOptions{})
	defer tbl2.eng.Close()
	verifyDir(t, tbl2, base, committed, uncommitted)
}

// crashWithTwoSyncPoints runs a deterministic workload with two sync
// points, hard-stops, and returns the committed maps for each point plus
// the log offset durable after the first. Shared by the torn-tail tests.
func crashWithTwoSyncPoints(t *testing.T, dir string, base TableOptions) (
	phase1, phase2 map[uint64][]byte, end1 int64) {
	t.Helper()
	tbl := openTable(t, dir, fileCfg(1<<20), base)
	phase1 = make(map[uint64][]byte)
	phase2 = make(map[uint64][]byte)
	for i := 0; i < 50; i++ {
		k := uint64(2*i + 1)
		body := []byte(fmt.Sprintf("phase1 %06d", k))
		if err := tbl.Insert(k, body); err != nil {
			t.Fatal(err)
		}
		phase1[k] = body
	}
	if err := tbl.eng.Sync(); err != nil {
		t.Fatal(err)
	}
	end1 = tbl.eng.log.EndOffset()
	for i := 50; i < 100; i++ {
		k := uint64(2*i + 1)
		body := []byte(fmt.Sprintf("phase2 %06d", k))
		if err := tbl.Insert(k, body); err != nil {
			t.Fatal(err)
		}
		phase2[k] = body
	}
	if err := tbl.eng.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := tbl.eng.HardStop(); err != nil {
		t.Fatal(err)
	}
	return phase1, phase2, end1
}

// TestFileCrashRecoveryTruncatedWALTail hard-stops, then truncates the
// redo log mid-record — the torn tail a real power cut leaves. Recovery
// must replay the intact prefix: phase-1 updates survive, the truncated
// phase-2 tail is lost, and nothing errors.
func TestFileCrashRecoveryTruncatedWALTail(t *testing.T) {
	dir := t.TempDir()
	base := evenRows(2000, baseRow)
	phase1, phase2, end1 := crashWithTwoSyncPoints(t, dir, base)

	// Cut into the middle of the first phase-2 record's frame.
	walPath := filepath.Join(dir, "wal.log")
	if err := os.Truncate(walPath, end1+4); err != nil {
		t.Fatal(err)
	}
	tbl := openTable(t, dir, fileCfg(1<<20), TableOptions{})
	defer tbl.eng.Close()
	verifyDir(t, tbl, base, phase1, phase2)
	for k := range phase2 {
		if _, ok, err := tbl.Get(k); err != nil {
			t.Fatal(err)
		} else if ok {
			t.Fatalf("key %d from the truncated tail survived; truncation did not cut the log", k)
		}
	}
}

// TestFileCrashRecoveryCorruptWALTail flips a byte inside the last synced
// batch instead of truncating: the CRC framing must detect it and end
// replay there, keeping everything before the corruption.
func TestFileCrashRecoveryCorruptWALTail(t *testing.T) {
	dir := t.TempDir()
	base := evenRows(2000, baseRow)
	phase1, phase2, end1 := crashWithTwoSyncPoints(t, dir, base)

	walPath := filepath.Join(dir, "wal.log")
	f, err := os.OpenFile(walPath, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of the first phase-2 record.
	pos := end1 + 10
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, pos); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b, pos); err != nil {
		t.Fatal(err)
	}
	f.Close()

	tbl := openTable(t, dir, fileCfg(1<<20), TableOptions{})
	defer tbl.eng.Close()
	verifyDir(t, tbl, base, phase1, phase2)
}

// TestFileCrashDetectsMidLogCorruption: a checksum failure deep inside
// the log — with more than a torn batch's worth of intact committed
// records after it — is corruption of committed data, not a torn tail,
// and recovery must fail loudly instead of silently dropping everything
// past the damage.
func TestFileCrashDetectsMidLogCorruption(t *testing.T) {
	dir := t.TempDir()
	base := evenRows(500, baseRow)
	tbl := openTable(t, dir, fileCfg(8<<20), base)
	if err := tbl.Insert(1, []byte("early committed record")); err != nil {
		t.Fatal(err)
	}
	if err := tbl.eng.Sync(); err != nil {
		t.Fatal(err)
	}
	corruptAt := tbl.eng.log.EndOffset() - 20 // inside the first synced batch
	// Grow the log well past the torn-batch span with committed updates.
	big := bytes.Repeat([]byte{'x'}, 200)
	for i := 0; i < 12000; i++ {
		if err := tbl.Insert(uint64(2*i+3), big); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.eng.Sync(); err != nil {
		t.Fatal(err)
	}
	if tbl.eng.log.EndOffset() < corruptAt+(2<<20) {
		t.Fatalf("log too short for the scenario: end %d", tbl.eng.log.EndOffset())
	}
	if err := tbl.eng.HardStop(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, corruptAt); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b, corruptAt); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := OpenEngineDir(dir, EngineDirOptions{Config: fileCfg(8 << 20)}); err == nil {
		t.Fatal("recovery silently truncated committed records after mid-log corruption")
	}
}

// TestFileCrashDetectsCorruptWALHeader: the header is forced at creation
// time (Bootstrap), so a header that fails validation can only be media
// corruption — recovery must refuse it loudly instead of replaying an
// empty log and silently discarding every committed update.
func TestFileCrashDetectsCorruptWALHeader(t *testing.T) {
	dir := t.TempDir()
	base := evenRows(500, baseRow)
	phase1, _, _ := crashWithTwoSyncPoints(t, dir, base)
	if len(phase1) == 0 {
		t.Fatal("nothing committed")
	}
	f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xde}, 3); err != nil { // inside the magic
		t.Fatal(err)
	}
	f.Close()
	if _, err := OpenEngineDir(dir, EngineDirOptions{Config: fileCfg(1 << 20)}); err == nil {
		t.Fatal("recovery accepted a corrupted WAL header (would wipe all committed updates)")
	}
}

// TestFileCrashAfterMigration checks the checkpoint path: a migration
// rewrites table pages (allocating overflow pages) and the manifest; a
// hard stop right after must reopen to the fully migrated state with an
// empty cache.
func TestFileCrashAfterMigration(t *testing.T) {
	dir := t.TempDir()
	base := evenRows(2000, baseRow)
	tbl := openTable(t, dir, fileCfg(1<<20), base)
	committed := make(map[uint64][]byte)
	for i := 0; i < 1200; i++ {
		k := uint64(2*i + 1)
		body := []byte(fmt.Sprintf("migrated %06d", k))
		if err := tbl.Insert(k, body); err != nil {
			t.Fatal(err)
		}
		committed[k] = body
	}
	if err := tbl.Migrate(); err != nil {
		t.Fatal(err)
	}
	if err := tbl.eng.HardStop(); err != nil {
		t.Fatal(err)
	}
	tbl2 := openTable(t, dir, fileCfg(1<<20), TableOptions{})
	defer tbl2.eng.Close()
	if runs := tbl2.Stats().Runs; runs != 0 {
		t.Fatalf("reopened with %d runs after a completed migration, want 0", runs)
	}
	if got, want := tbl2.Stats().Rows, int64(len(base.Keys)+len(committed)); got != want {
		t.Fatalf("reopened table reports %d rows, want %d", got, want)
	}
	verifyDir(t, tbl2, base, committed, nil)
}

// TestFileCrashDetectsCorruptRun flips a byte inside a flushed run's data:
// recovery must fail with a checksum error rather than serve garbage.
func TestFileCrashDetectsCorruptRun(t *testing.T) {
	dir := t.TempDir()
	base := evenRows(1000, baseRow)
	tbl := openTable(t, dir, fileCfg(1<<20), base)
	for i := 0; i < 500; i++ {
		if err := tbl.Insert(uint64(2*i+1), []byte(fmt.Sprintf("run payload %06d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Flush(); err != nil { // run 0 lands at cache.runs offset 0
		t.Fatal(err)
	}
	if err := tbl.eng.Sync(); err != nil {
		t.Fatal(err)
	}
	if tbl.Stats().Runs == 0 {
		t.Fatal("expected a materialized run")
	}
	if err := tbl.eng.HardStop(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "cache.runs"), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, 128); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x55
	if _, err := f.WriteAt(b, 128); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := OpenEngineDir(dir, EngineDirOptions{Config: fileCfg(1 << 20)}); err == nil {
		t.Fatal("recovery accepted a corrupted run; checksum verification missing")
	}
}

// TestOpenDirExclusiveLock: a directory has one owner. A second
// OpenEngineDir while the first is live must fail fast instead of interleaving writes;
// the lock frees with the descriptors, so it survives neither Close nor a
// hard stop.
func TestOpenDirExclusiveLock(t *testing.T) {
	dir := t.TempDir()
	base := evenRows(500, baseRow)
	tbl := openTable(t, dir, fileCfg(1<<20), base)
	if _, err := OpenEngineDir(dir, EngineDirOptions{Config: fileCfg(1 << 20)}); err == nil {
		t.Fatal("second OpenEngineDir on a live directory succeeded")
	}
	if err := tbl.eng.HardStop(); err != nil {
		t.Fatal(err)
	}
	// A dead owner leaves no stale lock.
	tbl2 := openTable(t, dir, fileCfg(1<<20), TableOptions{})
	if err := tbl2.eng.Close(); err != nil {
		t.Fatal(err)
	}
	tbl3 := openTable(t, dir, fileCfg(1<<20), TableOptions{})
	tbl3.eng.Close()
}

// TestFileCrashViaCrashAPI exercises Engine.Crash on the file backend: the
// same hard stop + reopen, packaged as the call the recovery example uses.
func TestFileCrashViaCrashAPI(t *testing.T) {
	dir := t.TempDir()
	base := evenRows(1000, baseRow)
	tbl := openTable(t, dir, fileCfg(1<<20), base)
	committed := make(map[uint64][]byte)
	for i := 0; i < 300; i++ {
		k := uint64(2*i + 1)
		body := []byte(fmt.Sprintf("pre-crash %06d", k))
		if err := tbl.Insert(k, body); err != nil {
			t.Fatal(err)
		}
		committed[k] = body
	}
	if err := tbl.eng.Sync(); err != nil {
		t.Fatal(err)
	}
	e2, err := tbl.eng.Crash()
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	tbl2, err := e2.OpenTable(testTable)
	if err != nil {
		t.Fatal(err)
	}
	verifyDir(t, tbl2, base, committed, nil)
	// And the recovered database keeps working.
	if err := tbl2.Insert(999_999, []byte("alive")); err != nil {
		t.Fatal(err)
	}
	got, ok, err := tbl2.Get(999_999)
	if err != nil || !ok || !bytes.Equal(got, []byte("alive")) {
		t.Fatalf("post-recovery insert unreadable: %q %v %v", got, ok, err)
	}
}

// TestReopenKeepsCacheGeometry: a reopened directory keeps the cache size it
// was created with — the reopen's Config.CacheBytes is ignored — and
// Engine.CacheBytes reports the size in force (masmd logs it when -cache
// differs).
func TestReopenKeepsCacheGeometry(t *testing.T) {
	dir := t.TempDir()
	open := func(cacheBytes int64) *Engine {
		t.Helper()
		cfg := DefaultConfig()
		cfg.CacheBytes = cacheBytes
		e, err := OpenEngineDir(dir, EngineDirOptions{Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	e := open(2 << 20)
	if got := e.CacheBytes(); got != 2<<20 {
		t.Fatalf("new directory: CacheBytes %d, want %d", got, 2<<20)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e = open(256 << 20)
	defer e.Close()
	if got := e.CacheBytes(); got != 2<<20 {
		t.Fatalf("reopened with a 256 MiB request: CacheBytes %d, want the directory's %d", got, 2<<20)
	}
}

// walMaxUnforced is the redo log's bound on written-but-unforced bytes
// (internal/wal's maxUnforced, half its torn-batch span).
const walMaxUnforced = 512 << 10

// TestLogForceCount: a log append never fsyncs. Inserts whose log stays
// under the unforced bound, with no flush, cost no fsync; a larger volume
// costs at most one force per walMaxUnforced bytes; Engine.Sync costs
// exactly one, and a Sync with nothing new costs none.
func TestLogForceCount(t *testing.T) {
	tbl := openTable(t, t.TempDir(), fileCfg(1<<30), TableOptions{})
	eng := tbl.eng
	defer eng.Close()
	syncs := func() int64 { return eng.Metrics().Counter("masm_wal_syncs") }
	if err := eng.Sync(); err != nil {
		t.Fatal(err)
	}
	body := bytes.Repeat([]byte{'x'}, 100)
	key := uint64(0)
	for _, inserts := range []int{2000, 12000} {
		start, before := eng.log.EndOffset(), syncs()
		for i := 0; i < inserts; i++ {
			key++
			if err := tbl.Insert(key, body); err != nil {
				t.Fatal(err)
			}
		}
		forced := syncs() - before
		if err := eng.Sync(); err != nil {
			t.Fatal(err)
		}
		if n := syncs() - before - forced; n != 1 {
			t.Fatalf("Engine.Sync after %d inserts cost %d fsyncs, want 1", inserts, n)
		}
		logged := eng.log.EndOffset() - start
		switch bound := (logged + walMaxUnforced - 1) / walMaxUnforced; {
		case logged <= walMaxUnforced && forced != 0:
			t.Fatalf("%d inserts (%d log bytes, under the bound) fsynced the log %d times", inserts, logged, forced)
		case forced > bound:
			t.Fatalf("%d inserts (%d log bytes) fsynced the log %d times, want at most %d", inserts, logged, forced, bound)
		}
		before = syncs()
		if err := eng.Sync(); err != nil {
			t.Fatal(err)
		}
		if n := syncs() - before; n != 0 {
			t.Fatalf("a Sync with nothing new cost %d fsyncs", n)
		}
	}
	if runs := tbl.Stats().Runs; runs != 0 {
		t.Fatalf("the inserts flushed %d runs; a flush forces the log, so the counts above prove nothing", runs)
	}
}

// syncGate is a backend whose next Sync, once armed, blocks until the
// test releases it.
type syncGate struct {
	storage.Backend
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
	syncs   atomic.Int64
}

func (g *syncGate) Sync() error {
	g.syncs.Add(1)
	if g.armed.CompareAndSwap(true, false) {
		close(g.entered)
		<-g.release
	}
	return g.Backend.Sync()
}

// TestLogForceOutsideLatch: the log's fsync runs outside the log latch,
// so while a Sync is stuck in it, writes and reads of the table being
// synced, and writes of another table, go on; Syncs that arrive meanwhile
// share one more fsync once it returns.
func TestLogForceOutsideLatch(t *testing.T) {
	gate := &syncGate{entered: make(chan struct{}), release: make(chan struct{})}
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(gate.release) }) }
	eng, err := OpenEngineDir(t.TempDir(), EngineDirOptions{Config: fileCfg(16 << 20),
		WrapBackend: func(name string, be storage.Backend) storage.Backend {
			if name != "wal.log" {
				return be
			}
			gate.Backend = be
			return gate
		}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		release()
		eng.Close()
	})
	a, err := eng.CreateTable("a", TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.CreateTable("b", TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	body := bytes.Repeat([]byte{'y'}, 100)
	for k := uint64(1); k <= 100; k++ {
		if err := a.Insert(k, body); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := a.Insert(101, body); err != nil {
		t.Fatal(err)
	}
	before := gate.syncs.Load()
	gate.armed.Store(true)
	blocked := make(chan error, 1)
	go func() { blocked <- eng.Sync() }()
	<-gate.entered

	within := func(what string, fn func() error) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- fn() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s waited for the log's fsync", what)
		}
	}
	within("an Insert on the table being synced", func() error { return a.Insert(102, body) })
	within("a Get on that table", func() error {
		if _, ok, err := a.Get(102); err != nil || !ok {
			return fmt.Errorf("key 102: found %v, err %v", ok, err)
		}
		return nil
	})
	within("a Scan on that table", func() error {
		n := 0
		err := a.Scan(0, ^uint64(0), func(uint64, []byte) bool { n++; return true })
		if err == nil && n != 102 {
			err = fmt.Errorf("%d rows, want 102", n)
		}
		return err
	})
	within("an Insert on another table", func() error { return b.Insert(1, body) })

	const syncers = 8
	errs := make(chan error, syncers)
	for i := 0; i < syncers; i++ {
		go func() { errs <- eng.Sync() }()
	}
	// Give them time to queue behind the stuck force; the bound below
	// holds however many of them do.
	time.Sleep(20 * time.Millisecond)
	release()
	if err := <-blocked; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < syncers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if n := gate.syncs.Load() - before; n > 2 {
		t.Fatalf("a stuck Sync and %d Syncs behind it cost %d fsyncs, want at most 2", syncers, n)
	}
}
