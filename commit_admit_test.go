package masm_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"

	"masm"
)

// Write admission, at the library boundary: with a migration scheduler
// running, a transaction commit or a Table write that would land in a
// cache at or above masm.AdmitFill waits for migration instead of
// overrunning the cache.

const (
	admitCache  = 2 << 20 // the engine's shared SSD update cache, bytes
	admitTxPuts = 100     // puts per transaction
	admitBody   = 100     // bytes per put
)

// admitBase builds a base table of n rows on the even keys.
func admitBase(n int) ([]uint64, [][]byte) {
	keys := make([]uint64, n)
	bodies := make([][]byte, n)
	for i := range keys {
		keys[i] = uint64(i+1) * 2
		bodies[i] = admitRow(keys[i], 0)
	}
	return keys, bodies
}

// admitRow is key's body at version v: admitBody bytes that name both.
func admitRow(key uint64, v int) []byte {
	b := bytes.Repeat([]byte{'.'}, admitBody)
	binary.LittleEndian.PutUint64(b, key)
	copy(b[8:], fmt.Sprintf("v%08d", v))
	return b
}

// openAdmitEngine opens a file-backed engine in dir with a 2 MiB cache and,
// when rows > 0, creates table "t" bulk-loaded with admitBase(rows).
func openAdmitEngine(t *testing.T, dir string, rows int) *masm.Engine {
	t.Helper()
	cfg := masm.DefaultConfig()
	cfg.CacheBytes = admitCache
	eng, err := masm.OpenEngineDir(dir, masm.EngineDirOptions{Config: cfg, DataBytes: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if rows > 0 {
		keys, bodies := admitBase(rows)
		if _, err := eng.CreateTable("t", masm.TableOptions{Keys: keys, Bodies: bodies}); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

// commitPuts commits one transaction inserting each key at version v.
func commitPuts(eng *masm.Engine, keys []uint64, v int) error {
	tx, err := eng.BeginTx(masm.TxSnapshot)
	if err != nil {
		return err
	}
	for _, k := range keys {
		if err := tx.Insert("t", k, admitRow(k, v)); err != nil {
			tx.Abort()
			return err
		}
	}
	return tx.Commit()
}

// TestCommitsWaitForMigration is the benchmark's at-rest transaction probe
// that overran a 2 MiB cache: back-to-back 100-put transactions with the
// scheduler running. One of them always holds a reader open, so without
// commit admission no migration can begin and the table's budget runs out
// within a few hundred commits ("over its SSD cache budget"). With it
// every commit lands, the engine's accounting holds, and a hard stop
// recovers exactly what was committed.
func TestCommitsWaitForMigration(t *testing.T) {
	if testing.Short() {
		t.Skip("commits 16 MiB of updates through a 2 MiB cache")
	}
	const rows = 50_000
	// At least eight times the cache in updates, so the cache must be
	// migrated over and over; the count, not the clock, ends the test.
	const commits = 8*admitCache/(admitTxPuts*admitBody) + 1
	dir := t.TempDir()
	eng := openAdmitEngine(t, dir, rows)
	ms, err := eng.StartMigrationScheduler(0)
	if err != nil {
		t.Fatal(err)
	}
	baseKeys, baseBodies := admitBase(rows)
	model := make(map[uint64][]byte, rows) // key -> the body last committed
	for i, k := range baseKeys {
		model[k] = baseBodies[i]
	}
	keys := make([]uint64, admitTxPuts)
	next := 0
	for c := 0; c < commits; c++ {
		for i := range keys {
			// Overwrites spread over the whole table, a commit's keys
			// distinct: the table keeps its size while the cache churns.
			keys[i] = 2 * uint64((next*7919)%rows+1)
			next++
		}
		if err := commitPuts(eng, keys, c+1); err != nil {
			t.Fatalf("commit %d of %d (%d migrations so far): %v", c, commits, ms.Migrations(), err)
		}
		for _, k := range keys {
			model[k] = admitRow(k, c+1)
		}
	}
	ms.Stop()
	t.Logf("%d commits of %d puts, %d migrations", commits, admitTxPuts, ms.Migrations())
	if ms.Migrations() < 4 {
		t.Fatalf("only %d migrations for %d bytes of updates into a %d-byte cache", ms.Migrations(), commits*admitTxPuts*admitBody, admitCache)
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := eng.HardStop(); err != nil {
		t.Fatal(err)
	}

	eng = openAdmitEngine(t, dir, 0)
	defer eng.Close()
	if err := eng.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	tbl, err := eng.OpenTable("t")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := tbl.Scan(0, ^uint64(0), func(key uint64, body []byte) bool {
		if want, ok := model[key]; !ok || !bytes.Equal(body, want) {
			t.Fatalf("recovered key %d: body %q, want %q (in the model: %v)", key, body, want, ok)
		}
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n != len(model) {
		t.Fatalf("recovered %d rows, want %d", n, len(model))
	}
}

// openFullTable builds an in-memory engine whose table "t" holds updates
// at or above masm.AdmitFill of its cache, with no migration yet.
func openFullTable(t *testing.T) (*masm.Engine, *masm.Table) {
	t.Helper()
	cfg := masm.DefaultConfig()
	cfg.CacheBytes = 1 << 20
	eng, err := masm.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	keys, bodies := admitBase(1000)
	tbl, err := eng.CreateTable("t", masm.TableOptions{Keys: keys, Bodies: bodies})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; tbl.CacheFill() < masm.AdmitFill; i++ {
		k := keys[i%len(keys)]
		if err := tbl.Insert(k, admitRow(k, i+1)); err != nil {
			t.Fatal(err)
		}
	}
	return eng, tbl
}

// insertPuts inserts each key at version v through Table.Insert.
func insertPuts(eng *masm.Engine, keys []uint64, v int) error {
	tbl, err := eng.OpenTable("t")
	if err != nil {
		return err
	}
	for _, k := range keys {
		if err := tbl.Insert(k, admitRow(k, v)); err != nil {
			return err
		}
	}
	return nil
}

// admitWrites are the two writes that pass admission: a transaction's
// commit and a Table write.
var admitWrites = []struct {
	name  string
	write func(eng *masm.Engine, keys []uint64, v int) error
}{
	{"Commit", commitPuts},
	{"Insert", insertPuts},
}

// TestPutsWaitForMigration is TestCommitsWaitForMigration for Table
// writes: back-to-back inserts from one goroutine with the scheduler
// running, while a snapshot held for the first second vetoes migration.
// Without admission for Table writes the table ran past its budget within
// a few hundred milliseconds ("over its SSD cache budget"), and about one
// insert in six failed; with it every insert waits out the reader, and
// the migration after it, and lands.
func TestPutsWaitForMigration(t *testing.T) {
	if testing.Short() {
		t.Skip("inserts 8 MiB of updates through a 2 MiB cache")
	}
	const rows = 50_000
	const inserts = 4 * admitCache / admitBody
	eng := openAdmitEngine(t, t.TempDir(), rows)
	defer eng.Close()
	tbl, err := eng.OpenTable("t")
	if err != nil {
		t.Fatal(err)
	}
	ms, err := eng.StartMigrationScheduler(0)
	if err != nil {
		t.Fatal(err)
	}
	reader, err := tbl.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	closer := time.AfterFunc(time.Second, func() { reader.Close() })
	defer closer.Stop()
	start := time.Now()
	for i := 0; i < inserts; i++ {
		k := 2 * uint64((i*7919)%rows+1)
		if err := tbl.Insert(k, admitRow(k, i+1)); err != nil {
			t.Fatalf("insert %d of %d after %v (%d migrations so far): %v", i, inserts, time.Since(start), ms.Migrations(), err)
		}
	}
	ms.Stop()
	t.Logf("%d inserts in %v, %d migrations", inserts, time.Since(start), ms.Migrations())
	if ms.Migrations() == 0 {
		t.Fatalf("no migration for %d bytes of updates into a %d-byte cache", inserts*admitBody, admitCache)
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCommitAdmissionTimesOut: a reader held open vetoes migration, so a
// write into a full cache — a commit or a Table insert — waits out the
// admission bound and is refused with ErrBackpressure, publishing
// nothing. Once the reader closes, the same write retried waits for the
// migration and lands.
func TestCommitAdmissionTimesOut(t *testing.T) {
	for _, w := range admitWrites {
		t.Run(w.name, func(t *testing.T) {
			eng, tbl := openFullTable(t)
			reader, err := tbl.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			ms, err := eng.StartMigrationScheduler(5 * time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			const bound = 200 * time.Millisecond
			masm.SetAdmitWait(t, bound)
			keys := []uint64{1, 3, 5}
			start := time.Now()
			err = w.write(eng, keys, 1)
			if !errors.Is(err, masm.ErrBackpressure) {
				t.Fatalf("write into a full cache behind an open reader: %v, want ErrBackpressure", err)
			}
			if waited := time.Since(start); waited < bound {
				t.Fatalf("refused after %v, before the %v bound", waited, bound)
			}
			for _, k := range keys {
				if _, found, err := tbl.Get(k); err != nil || found {
					t.Fatalf("key %d of the refused write: found %v, err %v", k, found, err)
				}
			}
			if ms.Migrations() != 0 {
				t.Fatalf("%d migrations ran past the open reader", ms.Migrations())
			}

			reader.Close()
			masm.SetAdmitWait(t, 10*time.Second)
			if err := w.write(eng, keys, 2); err != nil {
				t.Fatalf("retry once the reader closed: %v", err)
			}
			if ms.Migrations() == 0 {
				t.Fatal("the retried write was admitted before any migration")
			}
			for _, k := range keys {
				if body, found, err := tbl.Get(k); err != nil || !found || !bytes.Equal(body, admitRow(k, 2)) {
					t.Fatalf("key %d of the retried write: found %v, err %v", k, found, err)
				}
			}
			if err := eng.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCommitWithoutSchedulerAdmitsAtOnce: with no migration scheduler —
// none started, or one stopped — a write is what it was before admission:
// a full cache and an open reader do not hold back a commit or an insert.
func TestCommitWithoutSchedulerAdmitsAtOnce(t *testing.T) {
	for _, w := range admitWrites {
		t.Run(w.name, func(t *testing.T) {
			eng, tbl := openFullTable(t)
			reader, err := tbl.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			defer reader.Close()
			masm.SetAdmitWait(t, time.Minute)
			if err := w.write(eng, []uint64{1}, 1); err != nil {
				t.Fatalf("write with no scheduler: %v", err)
			}
			ms, err := eng.StartMigrationScheduler(0)
			if err != nil {
				t.Fatal(err)
			}
			ms.Stop()
			if err := w.write(eng, []uint64{3}, 1); err != nil {
				t.Fatalf("write after the scheduler stopped: %v", err)
			}
			for _, k := range []uint64{1, 3} {
				if _, found, err := tbl.Get(k); err != nil || !found {
					t.Fatalf("key %d: found %v, err %v", k, found, err)
				}
			}
			if fill := tbl.CacheFill(); fill < masm.AdmitFill {
				t.Fatalf("fill %.3f fell under AdmitFill with no migration", fill)
			}
		})
	}
}
