package txn

import (
	"bytes"
	"errors"
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

func newStore(t *testing.T, nRows int) *masm.Store {
	return newTableStore(t, nRows, &masm.Oracle{}, 0)
}

// newTableStore builds table id's store of an engine whose tables share
// oracle.
func newTableStore(t *testing.T, nRows int, oracle *masm.Oracle, id uint32) *masm.Store {
	t.Helper()
	hdd := sim.NewDevice(sim.Barracuda7200())
	vol, err := storage.NewVolume(hdd, 0, 2<<30)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]uint64, nRows)
	bodies := make([][]byte, nRows)
	for i := range keys {
		keys[i] = uint64(i+1) * 2
		bodies[i] = body(keys[i], 92)
	}
	tbl, err := table.Load(vol, table.DefaultConfig(), keys, bodies)
	if err != nil {
		t.Fatal(err)
	}
	ssd := sim.NewDevice(sim.IntelX25E())
	ssdVol, err := storage.NewVolume(ssd, 0, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	cfg := masm.DefaultConfig(4 << 20)
	cfg.SSDPage = 4 << 10
	cfg.Run.IOSize = 16 << 10
	cfg.Run.IndexGranularity = 4 << 10
	cfg.ScanGranularity = 4 << 10
	store, err := masm.NewStore(cfg, tbl, ssdVol, oracle, nil, masm.NewSharedAlloc(ssdVol.Size()).Partition(id, ssdVol.Size()), nil)
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// forEachArity runs a commit test twice — committing each transaction
// alone, and with a sub-transaction on a second table riding along — so
// both arities exercise the one Commit. The rider inserts a fresh key of
// the second table, which must share the commit's fate.
func forEachArity(t *testing.T, nRows int, fn func(t *testing.T, m *Manager, commit func(*Txn) error)) {
	t.Run("one table", func(t *testing.T) {
		fn(t, NewManager(newStore(t, nRows)), func(tx *Txn) error {
			_, err := tx.Commit(0)
			return err
		})
	})
	t.Run("two tables", func(t *testing.T) {
		oracle := &masm.Oracle{}
		m := NewManager(newTableStore(t, nRows, oracle, 0))
		m2 := NewManager(newTableStore(t, nRows, oracle, 1))
		key := uint64(1001)
		fn(t, m, func(tx *Txn) error {
			key += 2
			rider := m2.Begin()
			if err := rider.Update(update.Record{Key: key, Op: update.Insert, Payload: []byte("rider")}); err != nil {
				t.Fatal(err)
			}
			_, err := tx.Commit(0, rider)
			rider.Abort() // a refused commit (ErrDone) finishes nobody
			check := m2.Begin()
			_, published := scanAll(t, check)[key]
			check.Abort()
			if published != (err == nil) {
				t.Fatalf("commit returned %v but the second table's write published=%v", err, published)
			}
			return err
		})
	})
}

func scanAll(t *testing.T, tx *Txn) map[uint64][]byte {
	t.Helper()
	got := make(map[uint64][]byte)
	if _, err := tx.Scan(0, 0, ^uint64(0), func(key uint64, body []byte) bool {
		got[key] = append([]byte(nil), body...)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestTxnReadsOwnWrites(t *testing.T) {
	store := newStore(t, 100)
	m := NewManager(store)
	tx := m.Begin()
	if err := tx.Update(update.Record{Key: 3, Op: update.Insert, Payload: []byte("mine")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update(update.Record{Key: 4, Op: update.Delete}); err != nil {
		t.Fatal(err)
	}
	got := scanAll(t, tx)
	if !bytes.Equal(got[3], []byte("mine")) {
		t.Fatalf("own insert invisible: %v", got[3])
	}
	if _, ok := got[4]; ok {
		t.Fatal("own delete invisible")
	}
	// Other transactions do not see uncommitted writes.
	tx2 := m.Begin()
	got2 := scanAll(t, tx2)
	if _, ok := got2[3]; ok {
		t.Fatal("uncommitted write leaked")
	}
	if _, ok := got2[4]; !ok {
		t.Fatal("uncommitted delete leaked")
	}
	tx.Abort()
	tx2.Abort()
}

func TestTxnCommitPublishes(t *testing.T) {
	forEachArity(t, 100, func(t *testing.T, m *Manager, commit func(*Txn) error) {
		tx := m.Begin()
		tx.Update(update.Record{Key: 5, Op: update.Insert, Payload: []byte("pub")})
		if err := commit(tx); err != nil {
			t.Fatal(err)
		}
		tx2 := m.Begin()
		got := scanAll(t, tx2)
		if !bytes.Equal(got[5], []byte("pub")) {
			t.Fatal("committed write not visible to later txn")
		}
		tx2.Abort()
	})
}

func TestSnapshotIsolationStability(t *testing.T) {
	store := newStore(t, 100)
	m := NewManager(store)
	reader := m.Begin()
	writer := m.Begin()
	writer.Update(update.Record{Key: 2, Op: update.Delete})
	if _, err := writer.Commit(0); err != nil {
		t.Fatal(err)
	}
	// The reader began before the writer committed: key 2 still visible.
	got := scanAll(t, reader)
	if _, ok := got[2]; !ok {
		t.Fatal("snapshot not stable: committed delete visible to older txn")
	}
	reader.Abort()
}

func TestFirstCommitterWins(t *testing.T) {
	forEachArity(t, 100, func(t *testing.T, m *Manager, commit func(*Txn) error) {
		a := m.Begin()
		b := m.Begin()
		a.Update(update.Record{Key: 10, Op: update.Modify,
			Payload: update.EncodeFields([]update.Field{{Off: 0, Value: []byte("A")}})})
		b.Update(update.Record{Key: 10, Op: update.Modify,
			Payload: update.EncodeFields([]update.Field{{Off: 0, Value: []byte("B")}})})
		if err := commit(a); err != nil {
			t.Fatal(err)
		}
		if err := commit(b); !errors.Is(err, ErrWriteConflict) {
			t.Fatalf("second committer got %v, want ErrWriteConflict", err)
		}
		// Non-conflicting writer commits fine.
		c := m.Begin()
		c.Update(update.Record{Key: 12, Op: update.Delete})
		if err := commit(c); err != nil {
			t.Fatal(err)
		}
	})
}

func TestAbortDiscards(t *testing.T) {
	store := newStore(t, 100)
	m := NewManager(store)
	tx := m.Begin()
	tx.Update(update.Record{Key: 30, Op: update.Delete})
	tx.Abort()
	// Another txn may still write the key and commit.
	tx2 := m.Begin()
	if err := tx2.Update(update.Record{Key: 30, Op: update.Modify,
		Payload: update.EncodeFields([]update.Field{{Off: 0, Value: []byte("k")}})}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Commit(0); err != nil {
		t.Fatal(err)
	}
	// And the aborted delete never happened.
	tx3 := m.Begin()
	got := scanAll(t, tx3)
	if !bytes.HasPrefix(got[30], []byte("k")) {
		t.Fatalf("aborted delete took effect: key 30 = %v", got[30])
	}
	tx3.Abort()
}

func TestDoneTxnRejected(t *testing.T) {
	forEachArity(t, 10, func(t *testing.T, m *Manager, commit func(*Txn) error) {
		tx := m.Begin()
		if err := commit(tx); err != nil {
			t.Fatal(err)
		}
		if err := tx.Update(update.Record{Key: 2, Op: update.Delete}); !errors.Is(err, ErrDone) {
			t.Fatalf("update after commit: %v", err)
		}
		if err := commit(tx); !errors.Is(err, ErrDone) {
			t.Fatalf("double commit: %v", err)
		}
	})
}

// TestCommitAfterReleaseReads: a transaction that released its reads no
// longer holds migration back, and still commits — validating
// first-committer-wins against the commits made in between — while its
// scans are refused.
func TestCommitAfterReleaseReads(t *testing.T) {
	store := newStore(t, 100)
	m := NewManager(store)
	a := m.Begin()
	b := m.Begin()
	a.Update(update.Record{Key: 40, Op: update.Insert, Payload: []byte("a")})
	b.Update(update.Record{Key: 42, Op: update.Delete})
	if _, _, err := store.Migrate(0); !errors.Is(err, masm.ErrActiveQueries) {
		t.Fatalf("migration with two open transactions: %v, want ErrActiveQueries", err)
	}
	a.ReleaseReads()
	a.ReleaseReads() // idempotent
	b.ReleaseReads()
	if _, err := a.Scan(0, 0, 100, func(uint64, []byte) bool { return true }); !errors.Is(err, masm.ErrSnapshotClosed) {
		t.Fatalf("scan after ReleaseReads: %v, want ErrSnapshotClosed", err)
	}
	if _, _, err := store.Migrate(0); err != nil {
		t.Fatalf("migration after both released their reads: %v", err)
	}
	c := m.Begin()
	c.Update(update.Record{Key: 42, Op: update.Insert, Payload: []byte("c")})
	if _, err := c.Commit(0); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Commit(0); err != nil {
		t.Fatalf("commit after ReleaseReads: %v", err)
	}
	if _, err := b.Commit(0); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("released reader's conflicting commit: %v, want ErrWriteConflict", err)
	}
	check := m.Begin()
	got := scanAll(t, check)
	check.Abort()
	if !bytes.Equal(got[40], []byte("a")) || !bytes.Equal(got[42], []byte("c")) {
		t.Fatalf("after the commits: key 40 = %q, key 42 = %q", got[40], got[42])
	}
}

func TestTxnScanRange(t *testing.T) {
	store := newStore(t, 1000)
	m := NewManager(store)
	tx := m.Begin()
	tx.Update(update.Record{Key: 101, Op: update.Insert, Payload: []byte("odd")})
	n := 0
	if _, err := tx.Scan(0, 100, 110, func(key uint64, _ []byte) bool {
		if key < 100 || key > 110 {
			t.Fatalf("row %d outside range", key)
		}
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	// Evens 100..110 (6 rows) plus private 101.
	if n != 7 {
		t.Fatalf("scan saw %d rows, want 7", n)
	}
	tx.Abort()
}

// historyLen returns the size of m's first-committer-wins history.
func historyLen(m *Manager) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.lastCommit)
}

// TestCommitHistoryBounded: sequential commits of distinct keys must not
// grow the commit history with every key ever written — a long-running
// server would hold one entry per key forever.
func TestCommitHistoryBounded(t *testing.T) {
	m := NewManager(newStore(t, 10))
	for i := 0; i < 10000; i++ {
		tx := m.Begin()
		tx.Update(update.Record{Key: uint64(100000 + i), Op: update.Delete})
		if _, err := tx.Commit(0); err != nil {
			t.Fatal(err)
		}
	}
	if n := historyLen(m); n > minPruneAt {
		t.Fatalf("commit history holds %d keys after 10000 sequential commits, want at most %d", n, minPruneAt)
	}
}

// TestFirstCommitterWinsAcrossPrunes: pruning keeps every entry a still
// open transaction validates against. Transactions open across many
// prunes are refused a key committed after they began, and allowed one
// whose entry the prunes dropped.
func TestFirstCommitterWinsAcrossPrunes(t *testing.T) {
	m := NewManager(newStore(t, 10))
	commit := func(key uint64) {
		t.Helper()
		tx := m.Begin()
		tx.Update(update.Record{Key: key, Op: update.Delete})
		if _, err := tx.Commit(0); err != nil {
			t.Fatal(err)
		}
	}
	commit(7)
	before, after := m.Begin(), m.Begin()
	commit(8)
	for i := 0; i < 10000; i++ {
		commit(uint64(100000 + i))
		if i%1000 == 0 {
			// Other transactions come and go while these stay open.
			m.Begin().Abort()
		}
	}
	m.mu.Lock()
	_, kept := m.lastCommit[7]
	m.mu.Unlock()
	if kept {
		t.Fatal("no prune dropped the entry committed before every open transaction")
	}
	before.Update(update.Record{Key: 7, Op: update.Delete})
	if _, err := before.Commit(0); err != nil {
		t.Fatalf("write to a key committed before the transaction began: %v", err)
	}
	after.Update(update.Record{Key: 8, Op: update.Delete})
	if _, err := after.Commit(0); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("long-open transaction's write to a key committed after it began: %v, want ErrWriteConflict", err)
	}
}
