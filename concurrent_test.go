package masm

// Concurrency stress tests for the snapshot-isolated execution layer. Run
// under `go test -race` these exercise concurrent scans, mixed updates,
// explicit snapshots and background migration from many goroutines, and
// assert the isolation contract: every scan sees strictly increasing keys,
// never a torn row, and never an update applied after its snapshot was
// taken.

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"masm/internal/obs"
)

// stressBody builds the self-validating row format used by the stress
// tests: the key and a generation number are embedded in fixed-width
// fields, so a torn or misrouted row is detectable from the body alone.
func stressBody(key uint64, gen int) []byte {
	return []byte(fmt.Sprintf("key=%020d;gen=%06d;padding-padding-padding", key, gen))
}

// genOffset is the byte offset of the generation field in stressBody.
const genOffset = 4 + 20 + 5

// checkStressRow validates one scanned row against the body format.
func checkStressRow(key uint64, body []byte) error {
	if len(body) != len(stressBody(0, 0)) {
		return fmt.Errorf("key %d: body length %d", key, len(body))
	}
	k, err := strconv.ParseUint(string(body[4:24]), 10, 64)
	if err != nil || k != key {
		return fmt.Errorf("key %d: embedded key %q", key, body[4:24])
	}
	if _, err := strconv.Atoi(string(body[genOffset : genOffset+6])); err != nil {
		return fmt.Errorf("key %d: bad generation %q", key, body[genOffset:genOffset+6])
	}
	return nil
}

// stressRow is the bulk-load format of stressBody's generation 0.
const stressRow = "key=%020d;gen=000000;padding-padding-padding"

// TestConcurrentScansAndUpdates is the headline scenario of the paper run
// for real: analytical scans iterating while updates stream in from
// several goroutines and a background scheduler migrates — all at once.
func TestConcurrentScansAndUpdates(t *testing.T) {
	const n = 3000
	cfg := DefaultConfig()
	cfg.CacheBytes = 1 << 20
	cfg.MigrateThreshold = 0.3
	tbl := openTable(t, "", cfg, evenRows(n, stressRow))
	defer tbl.eng.Close()
	if _, err := tbl.eng.StartMigrationScheduler(5 * time.Millisecond); err != nil {
		t.Fatal(err)
	}

	var writers, scanners sync.WaitGroup
	stop := make(chan struct{})

	// Writers: mixed inserts, deletes and field modifications over a hot
	// key range. Every operation leaves any row in a valid state.
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				key := uint64(rng.Intn(3*n)) + 1
				var err error
				switch rng.Intn(3) {
				case 0:
					err = tbl.Insert(key, stressBody(key, i+1))
				case 1:
					err = tbl.Delete(key)
				default:
					err = tbl.Modify(key, genOffset, []byte(fmt.Sprintf("%06d", i+1)))
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(w + 1))
	}

	// Scanners: long range scans concurrent with the writers. Keys must be
	// strictly increasing and every row internally consistent.
	for r := 0; r < 3; r++ {
		scanners.Add(1)
		go func(seed int64) {
			defer scanners.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				lo := uint64(rng.Intn(2 * n))
				hi := lo + uint64(rng.Intn(4*n))
				var prev uint64
				first := true
				err := tbl.Scan(lo, hi, func(key uint64, body []byte) bool {
					if key < lo || key > hi {
						t.Errorf("scan [%d,%d] returned key %d", lo, hi, key)
						return false
					}
					if !first && key <= prev {
						t.Errorf("keys not increasing: %d after %d", key, prev)
						return false
					}
					prev, first = key, false
					if err := checkStressRow(key, body); err != nil {
						t.Errorf("torn row: %v", err)
						return false
					}
					return true
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(r + 100))
	}

	writers.Wait()
	close(stop)
	scanners.Wait()
	// Final full verification pass.
	var prev uint64
	first := true
	if err := tbl.Scan(0, ^uint64(0), func(key uint64, body []byte) bool {
		if !first && key <= prev {
			t.Errorf("keys not increasing: %d after %d", key, prev)
			return false
		}
		prev, first = key, false
		if err := checkStressRow(key, body); err != nil {
			t.Errorf("torn row: %v", err)
			return false
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentGetsSeeCompletedWrites runs point lookups against writers,
// flushes and migrations, and holds them to the
// read-your-predecessors rule a fresh read timestamp implies: a Get that
// starts after a write returned must see that write or a later one. Each
// writer owns its keys and bumps a per-key generation; it publishes the
// generation only after the write returned, so a reader that loads the
// published value and then Gets the key may never read an older one — not
// when the record sits in the memtable's unsorted tail, not when a flush
// moves it into a run between the lookup's latch hold and its reads, not
// when a migration folds it into the page. A snapshot taken after a write
// returned sees it too, and two scans of the key from one snapshot agree.
func TestConcurrentGetsSeeCompletedWrites(t *testing.T) {
	const n, nKeys, perWriter = 2000, 64, 1500
	cfg := DefaultConfig()
	cfg.CacheBytes = 256 << 10
	tbl := openTable(t, "", cfg, evenRows(n, stressRow))
	defer tbl.eng.Close()
	hotKey := func(i int) uint64 { return uint64(i)*50 + 1 } // odd: inserted, never loaded
	published := make([]atomic.Int64, nKeys)
	genOf := func(key uint64, body []byte) (int64, error) {
		if err := checkStressRow(key, body); err != nil {
			return 0, err
		}
		g, err := strconv.Atoi(string(body[genOffset : genOffset+6]))
		return int64(g), err
	}

	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w + 1)))
			gen := make(map[int]int)
			for i := 0; i < perWriter; i++ {
				k := 2*rng.Intn(nKeys/2) + w // this writer's keys
				gen[k]++
				var err error
				if gen[k] == 1 || rng.Intn(4) == 0 {
					err = tbl.Insert(hotKey(k), stressBody(hotKey(k), gen[k]))
				} else {
					err = tbl.Modify(hotKey(k), genOffset, []byte(fmt.Sprintf("%06d", gen[k])))
				}
				if err != nil {
					t.Error(err)
					return
				}
				published[k].Store(int64(gen[k]))
				if i%100 == 99 {
					err = tbl.Flush()
				}
				// A migration waits for lookups older than it; the readers
				// pause often enough to let one through.
				for i%500 == 499 && err == nil {
					if err = tbl.Migrate(); errors.Is(err, ErrActiveQueries) || errors.Is(err, ErrMigrationInProgress) {
						err = nil
						time.Sleep(20 * time.Microsecond)
						continue
					}
					break
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := rng.Intn(nKeys)
				key := hotKey(k)
				floor := published[k].Load()
				body, ok, err := tbl.Get(key)
				if err != nil {
					t.Error(err)
					return
				}
				if !ok {
					if floor > 0 {
						t.Errorf("Get(%d) found nothing after generation %d was written", key, floor)
						return
					}
					continue
				}
				if g, err := genOf(key, body); err != nil || g < floor {
					t.Errorf("Get(%d) read generation %d (%v) after generation %d was written", key, g, err, floor)
					return
				}
				if i%50 != 0 {
					continue
				}
				floor = published[k].Load()
				sn, err := tbl.Snapshot()
				if err != nil {
					t.Error(err)
					return
				}
				got, gotOK, err := scanOne(sn.Scan, key)
				time.Sleep(50 * time.Microsecond)
				var ref []byte
				refOK := false
				if err == nil {
					ref, refOK, err = scanOne(sn.Scan, key)
				}
				sn.Close()
				if err != nil || gotOK != refOK || string(got) != string(ref) {
					t.Errorf("snapshot key %d: first Scan (%q,%v), second Scan (%q,%v), err %v", key, got, gotOK, ref, refOK, err)
					return
				}
				if floor == 0 {
					continue
				}
				if !gotOK {
					t.Errorf("snapshot key %d found nothing after generation %d was written", key, floor)
					return
				}
				if g, err := genOf(key, got); err != nil || g < floor {
					t.Errorf("snapshot key %d read generation %d (%v) after generation %d was written", key, g, err, floor)
					return
				}
			}
		}(int64(r + 100))
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	for k := range published {
		body, ok, err := tbl.Get(hotKey(k))
		want := published[k].Load()
		if err != nil || ok != (want > 0) {
			t.Fatalf("final Get(%d) = (%v, %v), %d generations written", hotKey(k), ok, err, want)
		}
		if g, err := genOf(hotKey(k), body); ok && (err != nil || g != want) {
			t.Fatalf("final Get(%d) read generation %d (%v), want %d", hotKey(k), g, err, want)
		}
	}
	m := tbl.eng.Metrics()
	if m.Counter("masm_migrations", obs.L("table", testTable)) == 0 || m.Counter("masm_one_pass_runs", obs.L("table", testTable)) == 0 {
		t.Fatal("no flush or no migration ran beside the lookups")
	}
}

// TestSnapshotIsolationUnderWrites takes explicit snapshots while writers
// run and asserts the two pillars of snapshot isolation: (1) a snapshot
// scanned twice returns byte-identical results even though updates, buffer
// flushes and run merges happen in between, and (2) updates applied after
// the snapshot was taken — marker keys in a reserved range — are never
// visible in it.
func TestSnapshotIsolationUnderWrites(t *testing.T) {
	const n = 2000
	const markerBase = uint64(1) << 40
	cfg := DefaultConfig()
	cfg.CacheBytes = 8 << 20
	tbl := openTable(t, "", cfg, evenRows(n, stressRow))
	defer tbl.eng.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { close(stop) }) }
	defer func() {
		halt()
		wg.Wait()
	}()
	var markerSeq atomic.Uint64

	// Bounded writers: enough traffic to force flushes and re-sorts under
	// every snapshot, small enough to never exhaust the update cache even
	// though open snapshots block migration.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 5000; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := uint64(rng.Intn(3*n)) + 1
				var err error
				if rng.Intn(2) == 0 {
					err = tbl.Insert(key, stressBody(key, 1))
				} else {
					err = tbl.Delete(key)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(w + 1))
	}

	collect := func(s *Snapshot) (map[uint64]string, error) {
		got := make(map[uint64]string)
		err := s.Scan(0, ^uint64(0), func(key uint64, body []byte) bool {
			got[key] = string(body)
			return true
		})
		return got, err
	}

	for round := 0; round < 8; round++ {
		snap, err := tbl.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		before, err := collect(snap)
		if err != nil {
			t.Fatal(err)
		}
		// Updates strictly after the snapshot: fresh marker keys.
		markers := make([]uint64, 0, 10)
		for j := 0; j < 10; j++ {
			mk := markerBase + markerSeq.Add(1)
			markers = append(markers, mk)
			if err := tbl.Insert(mk, stressBody(mk, 0)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tbl.Flush(); err != nil { // force the markers into a run
			t.Fatal(err)
		}
		after, err := collect(snap)
		if err != nil {
			t.Fatal(err)
		}
		snap.Close()
		for _, mk := range markers {
			if _, ok := before[mk]; ok {
				t.Fatalf("round %d: marker %d visible in snapshot taken before it", round, mk)
			}
			if _, ok := after[mk]; ok {
				t.Fatalf("round %d: marker %d leaked into re-scanned snapshot", round, mk)
			}
		}
		if len(before) != len(after) {
			t.Fatalf("round %d: snapshot not repeatable: %d rows then %d", round, len(before), len(after))
		}
		for k, v := range before {
			if after[k] != v {
				t.Fatalf("round %d: key %d changed within one snapshot", round, k)
			}
		}
	}
}

// TestScanDoesNotBlockWrites asserts the structural point of the refactor:
// a scan paused mid-iteration does not prevent Insert from completing.
func TestScanDoesNotBlockWrites(t *testing.T) {
	tbl := openTable(t, "", DefaultConfig(), evenRows(2000, stressRow))
	defer tbl.eng.Close()

	inScan := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- tbl.Scan(0, ^uint64(0), func(key uint64, body []byte) bool {
			if key == 1000 { // pause mid-scan with the iterator open
				close(inScan)
				<-release
			}
			return true
		})
	}()
	<-inScan
	// Under a lock held for the whole scan this Insert would deadlock (the
	// test would time out).
	insertDone := make(chan error, 1)
	go func() { insertDone <- tbl.Insert(1, stressBody(1, 1)) }()
	select {
	case err := <-insertDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Insert blocked behind an open scan")
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentMigrateStepTolerated: incremental migration steps racing
// with scans either succeed or report the documented blocking errors —
// they never corrupt the view.
func TestConcurrentMigrateStepTolerated(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheBytes = 1 << 20
	tbl := openTable(t, "", cfg, evenRows(2000, stressRow))
	defer tbl.eng.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 1500; i++ {
			key := uint64(rng.Intn(6000)) + 1
			if err := tbl.Insert(key, stressBody(key, i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			if _, err := tbl.MigrateStep(64); err != nil {
				// Blocked by concurrent readers or another migration: both
				// are documented, recoverable outcomes.
				continue
			}
		}
	}()
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				var prev uint64
				first := true
				if err := tbl.Scan(0, ^uint64(0), func(key uint64, body []byte) bool {
					if !first && key <= prev {
						t.Errorf("keys not increasing: %d after %d", key, prev)
						return false
					}
					prev, first = key, false
					return checkStressRow(key, body) == nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestCacheExhaustionDurability: with migration blocked by a pinned
// snapshot, inserts fill the update cache until writes fail (like a full
// disk). Every acknowledged insert must remain readable throughout, and
// once the snapshot closes, Migrate must drain the exhausted cache — the
// buffered tail rides along in memory when no run can be materialized —
// and restore write availability without losing a record.
func TestCacheExhaustionDurability(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheBytes = 1 << 20
	tbl := openTable(t, "", cfg, evenRows(500, stressRow))
	defer tbl.eng.Close()

	snap, err := tbl.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	acked := make(map[uint64]bool)
	k := uint64(1) << 30
	for i := 0; i < 200000; i++ {
		k++
		if err := tbl.Insert(k, make([]byte, 512)); err != nil {
			break
		}
		acked[k] = true
	}
	if len(acked) == 0 || len(acked) == 200000 {
		t.Fatalf("setup: %d inserts acknowledged, expected partial fill", len(acked))
	}

	countAcked := func() int {
		seen := 0
		if err := tbl.Scan(uint64(1)<<30, ^uint64(0), func(key uint64, _ []byte) bool {
			if acked[key] {
				seen++
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return seen
	}
	if got := countAcked(); got != len(acked) {
		t.Fatalf("under exhaustion: %d/%d acknowledged rows visible", got, len(acked))
	}

	snap.Close()
	if err := tbl.Migrate(); err != nil {
		t.Fatalf("migrate after exhaustion: %v", err)
	}
	if err := tbl.Insert(k+1, make([]byte, 512)); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
	if got := countAcked(); got != len(acked) {
		t.Fatalf("after recovery migration: %d/%d acknowledged rows survive", got, len(acked))
	}
	if fill := tbl.Stats().CacheFill; fill > 0.5 {
		t.Fatalf("cache still %.0f%% full after recovery migration", fill*100)
	}
}

// TestCrossTableConcurrency is the catalog race suite: N tables in one
// engine, each with its own writer goroutine, per-table snapshot scans,
// and the shared migration scheduler arbitrating migrations across all of
// them — run under -race. Every scan must see the per-table isolation
// contract (strictly increasing keys, untorn self-validating rows), and
// tables must never observe each other's keys.
func TestCrossTableConcurrency(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheBytes = 8 << 20
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const nTables = 4
	const rows = 800
	tables := make([]*Table, nTables)
	for i := range tables {
		keys := make([]uint64, rows)
		bodies := make([][]byte, rows)
		for j := range keys {
			keys[j] = uint64(j+1)*2 + uint64(i)<<32 // per-table key stripe
			bodies[j] = stressBody(keys[j], 0)
		}
		tbl, err := e.CreateTable(fmt.Sprintf("tenant-%d", i),
			TableOptions{CacheBytes: 2 << 20, Keys: keys, Bodies: bodies})
		if err != nil {
			t.Fatal(err)
		}
		tables[i] = tbl
	}
	if _, err := e.StartMigrationScheduler(2 * time.Millisecond); err != nil {
		t.Fatal(err)
	}

	var (
		stop    atomic.Bool
		wg      sync.WaitGroup
		failMu  sync.Mutex
		failure error
	)
	fail := func(err error) {
		failMu.Lock()
		if failure == nil {
			failure = err
		}
		failMu.Unlock()
		stop.Store(true)
	}

	// One writer per table: inserts and modifies inside the table's own
	// key stripe.
	for i, tbl := range tables {
		wg.Add(1)
		go func(i int, tbl *Table) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i) + 1))
			for gen := 1; !stop.Load(); gen++ {
				key := uint64(rng.Intn(rows*2))*2 + 1 + uint64(i)<<32
				if err := tbl.Insert(key, stressBody(key, gen)); err != nil {
					fail(fmt.Errorf("tenant %d insert: %w", i, err))
					return
				}
			}
		}(i, tbl)
	}

	// One snapshot scanner per table: verifies per-table isolation and
	// that no foreign stripe leaks in.
	for i, tbl := range tables {
		wg.Add(1)
		go func(i int, tbl *Table) {
			defer wg.Done()
			for !stop.Load() {
				snap, err := tbl.Snapshot()
				if err != nil {
					fail(fmt.Errorf("tenant %d snapshot: %w", i, err))
					return
				}
				var last uint64
				err = snap.Scan(0, ^uint64(0), func(k uint64, b []byte) bool {
					if k>>32 != uint64(i) {
						fail(fmt.Errorf("tenant %d scan leaked key %#x from another table", i, k))
						return false
					}
					if last != 0 && k <= last {
						fail(fmt.Errorf("tenant %d scan not monotone: %d after %d", i, k, last))
						return false
					}
					last = k
					if err := checkStressRow(k, b); err != nil {
						fail(fmt.Errorf("tenant %d torn row: %w", i, err))
						return false
					}
					return true
				})
				snap.Close()
				if err != nil {
					fail(fmt.Errorf("tenant %d scan: %w", i, err))
					return
				}
			}
		}(i, tbl)
	}

	time.Sleep(300 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	if failure != nil {
		t.Fatal(failure)
	}
	st := e.Stats()
	if len(st.Tables) != nTables {
		t.Fatalf("stats cover %d tables", len(st.Tables))
	}
}

// TestMigrationDoesNotBlockOtherTables pins the catalog's isolation
// property directly: while one table's migration is forcibly blocked (an
// open snapshot makes BeginMigration refuse, and a long-held migration on
// it would anyway), every other table's scans and updates proceed.
func TestMigrationDoesNotBlockOtherTables(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheBytes = 8 << 20
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	mk := func(name string) *Table {
		keys := make([]uint64, 500)
		bodies := make([][]byte, 500)
		for j := range keys {
			keys[j] = uint64(j+1) * 2
			bodies[j] = stressBody(keys[j], 0)
		}
		tbl, err := e.CreateTable(name, TableOptions{CacheBytes: 2 << 20, Keys: keys, Bodies: bodies})
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	blocked := mk("blocked")
	free := mk("free")

	// Fill "blocked" past its threshold, then pin it with a snapshot so
	// its migration cannot start.
	for i := 0; i < 4000; i++ {
		if err := blocked.Insert(uint64(i)*2+1, stressBody(uint64(i)*2+1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := blocked.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if err := blocked.Migrate(); !errors.Is(err, ErrActiveQueries) {
		t.Fatalf("blocked table's migration: %v (want ErrActiveQueries)", err)
	}

	// A migration actually running on "blocked" must not stall "free"
	// either: start one in a goroutine (it retries while the snapshot
	// pins), and meanwhile drive the full read/write/migrate cycle on
	// "free".
	done := make(chan error, 1)
	go func() {
		for {
			err := blocked.Migrate()
			if err == nil || !errors.Is(err, ErrActiveQueries) {
				done <- err
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	for i := 0; i < 2000; i++ {
		if err := free.Insert(uint64(i)*2+1, stressBody(uint64(i)*2+1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	if err := free.Scan(0, ^uint64(0), func(uint64, []byte) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("free table scan empty")
	}
	if err := free.Migrate(); err != nil {
		t.Fatalf("free table migration while sibling blocked: %v", err)
	}
	// Unpin; the blocked migration completes.
	snap.Close()
	if err := <-done; err != nil {
		t.Fatalf("blocked table migration after unpin: %v", err)
	}
}
