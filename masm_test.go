package masm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"masm/internal/txn"
)

func loadDB(t *testing.T, n int, cfg Config) *DB {
	t.Helper()
	keys := make([]uint64, n)
	bodies := make([][]byte, n)
	for i := range keys {
		keys[i] = uint64(i+1) * 2
		bodies[i] = []byte(fmt.Sprintf("row-%06d-padding-padding-padding", keys[i]))
	}
	db, err := Open(cfg, keys, bodies)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func smallCfg() Config {
	cfg := DefaultConfig()
	cfg.CacheBytes = 4 << 20
	return cfg
}

func TestOpenScan(t *testing.T) {
	db := loadDB(t, 1000, smallCfg())
	defer db.Close()
	n := 0
	if err := db.Scan(0, ^uint64(0), func(key uint64, body []byte) bool {
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n != 1000 {
		t.Fatalf("scanned %d rows, want 1000", n)
	}
	if db.Elapsed() <= 0 {
		t.Fatal("no simulated time consumed")
	}
}

func TestCRUDVisibleImmediately(t *testing.T) {
	db := loadDB(t, 100, smallCfg())
	defer db.Close()
	if err := db.Insert(3, []byte("three")); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete(4); err != nil {
		t.Fatal(err)
	}
	if err := db.Modify(6, 0, []byte("MOD")); err != nil {
		t.Fatal(err)
	}
	if body, ok, err := db.Get(3); err != nil || !ok || string(body) != "three" {
		t.Fatalf("get(3) = %q %v %v", body, ok, err)
	}
	if _, ok, err := db.Get(4); err != nil || ok {
		t.Fatalf("get(4) should be gone, err=%v", err)
	}
	if body, ok, _ := db.Get(6); !ok || !bytes.HasPrefix(body, []byte("MOD")) {
		t.Fatalf("get(6) = %q", body)
	}
}

func TestMigrateAndContinue(t *testing.T) {
	db := loadDB(t, 2000, smallCfg())
	defer db.Close()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		key := uint64(rng.Intn(5000)) + 1
		switch rng.Intn(3) {
		case 0:
			if err := db.Insert(key, []byte(fmt.Sprintf("ins-%d-%d-padpadpadpad", key, i))); err != nil {
				t.Fatal(err)
			}
		case 1:
			if err := db.Delete(key); err != nil {
				t.Fatal(err)
			}
		default:
			if err := db.Modify(key, 0, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := snapshot(t, db)
	if err := db.Migrate(); err != nil {
		t.Fatal(err)
	}
	after := snapshot(t, db)
	if len(before) != len(after) {
		t.Fatalf("migration changed visible rows: %d -> %d", len(before), len(after))
	}
	for k, v := range before {
		if !bytes.Equal(after[k], v) {
			t.Fatalf("key %d changed across migration", k)
		}
	}
	st := db.Stats()
	if st.Migrations != 1 || st.Runs != 0 {
		t.Fatalf("stats after migration: %+v", st)
	}
	if st.SSDRandomWrites != 0 {
		t.Fatalf("%d random SSD writes (design goal 2 violated)", st.SSDRandomWrites)
	}
}

func snapshot(t *testing.T, db *DB) map[uint64][]byte {
	t.Helper()
	out := make(map[uint64][]byte)
	if err := db.Scan(0, ^uint64(0), func(key uint64, body []byte) bool {
		out[key] = append([]byte(nil), body...)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestMigrateIfNeeded(t *testing.T) {
	cfg := smallCfg()
	cfg.MigrateThreshold = 0.05
	db := loadDB(t, 1000, cfg)
	defer db.Close()
	ran := false
	for i := 0; i < 20000 && !ran; i++ {
		if err := db.Modify(uint64(i%2000)+1, 0, []byte{byte(i), byte(i), byte(i), byte(i)}); err != nil {
			t.Fatal(err)
		}
		var err error
		ran, err = db.MigrateIfNeeded()
		if err != nil {
			t.Fatal(err)
		}
	}
	if !ran {
		t.Fatal("threshold migration never triggered")
	}
}

func TestCrashRecovery(t *testing.T) {
	db := loadDB(t, 1500, smallCfg())
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2500; i++ {
		key := uint64(rng.Intn(4000)) + 1
		switch rng.Intn(3) {
		case 0:
			db.Insert(key, []byte(fmt.Sprintf("i-%d-%d-pad-pad-pad-pad", key, i)))
		case 1:
			db.Delete(key)
		default:
			db.Modify(key, 2, []byte{byte(i)})
		}
	}
	before := snapshot(t, db)
	// Group-committed tail entries are genuinely lost by a crash; sync
	// first so the snapshot is the durable state.
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	db2, err := db.Crash()
	if err != nil {
		t.Fatal(err)
	}
	after := snapshot(t, db2)
	if len(before) != len(after) {
		t.Fatalf("recovery lost rows: %d -> %d", len(before), len(after))
	}
	for k, v := range before {
		if !bytes.Equal(after[k], v) {
			t.Fatalf("key %d differs after recovery", k)
		}
	}
	// A second crash must also recover (the new log is complete).
	if err := db2.Sync(); err != nil {
		t.Fatal(err)
	}
	db3, err := db2.Crash()
	if err != nil {
		t.Fatal(err)
	}
	again := snapshot(t, db3)
	if len(again) != len(before) {
		t.Fatalf("second recovery lost rows: %d -> %d", len(before), len(again))
	}
	db3.Close()
}

func TestCrashWithoutLogRejected(t *testing.T) {
	cfg := smallCfg()
	cfg.DisableRedoLog = true
	db := loadDB(t, 10, cfg)
	defer db.Close()
	if _, err := db.Crash(); err == nil {
		t.Fatal("crash recovery without redo log accepted")
	}
}

func TestClosedDB(t *testing.T) {
	db := loadDB(t, 10, smallCfg())
	db.Close()
	if err := db.Insert(1, []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("insert on closed: %v", err)
	}
	if err := db.Scan(0, 10, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("scan on closed: %v", err)
	}
}

func TestTransactionsEndToEnd(t *testing.T) {
	db := loadDB(t, 500, smallCfg())
	defer db.Close()
	tx, err := db.Engine().BeginTx(TxSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert(DefaultTableName, 7, []byte("seven")); err != nil {
		t.Fatal(err)
	}
	seen := false
	if err := tx.Scan(DefaultTableName, 0, 10, func(key uint64, body []byte) bool {
		if key == 7 {
			seen = true
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !seen {
		t.Fatal("transaction does not see its own insert")
	}
	if _, ok, _ := db.Get(7); ok {
		t.Fatal("uncommitted insert visible outside transaction")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := db.Get(7); !ok {
		t.Fatal("committed insert invisible")
	}
	// Write-write conflict.
	a, errA := db.Engine().BeginTx(TxSnapshot)
	b, errB := db.Engine().BeginTx(TxSnapshot)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	a.Modify(DefaultTableName, 8, 0, []byte("A"))
	b.Modify(DefaultTableName, 8, 0, []byte("B"))
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); !errors.Is(err, txn.ErrWriteConflict) {
		t.Fatalf("second committer: %v", err)
	}
}

// TestModifyOffsetRange: every Modify entry point shares one record
// builder, which refuses an offset the wire format's u16 cannot hold
// instead of truncating it (the one-table Tx.Modify used to).
func TestModifyOffsetRange(t *testing.T) {
	db := loadDB(t, 10, smallCfg())
	defer db.Close()
	tx, err := db.Engine().BeginTx(TxSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	entry := map[string]func(off int) error{
		"Table.Modify":    func(off int) error { return db.Modify(2, off, []byte("x")) },
		"EngineTx.Modify": func(off int) error { return tx.Modify(DefaultTableName, 2, off, []byte("x")) },
	}
	for name, modify := range entry {
		for _, tc := range []struct {
			off int
			ok  bool
		}{{-1, false}, {0, true}, {65535, true}, {65536, false}} {
			if err := modify(tc.off); (err == nil) != tc.ok {
				t.Errorf("%s(off=%d): err = %v, want accepted=%v", name, tc.off, err, tc.ok)
			}
		}
	}
}

func TestModelEquivalenceQuick(t *testing.T) {
	// Property: any sequence of CRUD operations leaves the DB equal to a
	// plain map model.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		keys := make([]uint64, 200)
		bodies := make([][]byte, 200)
		model := make(map[uint64][]byte)
		for i := range keys {
			keys[i] = uint64(i+1) * 2
			bodies[i] = []byte(fmt.Sprintf("b-%03d-xxxxxxxxxxxx", i))
			model[keys[i]] = bodies[i]
		}
		db, err := Open(smallCfg(), keys, bodies)
		if err != nil {
			return false
		}
		defer db.Close()
		for i := 0; i < 300; i++ {
			key := uint64(rng.Intn(500)) + 1
			switch rng.Intn(4) {
			case 0:
				body := []byte(fmt.Sprintf("n-%d-%d-yyyyyyyy", key, i))
				db.Insert(key, body)
				model[key] = body
			case 1:
				db.Delete(key)
				delete(model, key)
			case 2:
				if err := db.Modify(key, 1, []byte{byte(i)}); err != nil {
					return false
				}
				if old, ok := model[key]; ok && len(old) > 1 {
					nb := append([]byte(nil), old...)
					nb[1] = byte(i)
					model[key] = nb
				}
			default:
				if rng.Intn(10) == 0 {
					if err := db.Migrate(); err != nil {
						return false
					}
				}
			}
		}
		got := make(map[uint64][]byte)
		if err := db.Scan(0, ^uint64(0), func(k uint64, b []byte) bool {
			got[k] = append([]byte(nil), b...)
			return true
		}); err != nil {
			return false
		}
		if len(got) != len(model) {
			return false
		}
		for k, v := range model {
			if !bytes.Equal(got[k], v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func ExampleOpen() {
	keys := []uint64{2, 4, 6}
	bodies := [][]byte{[]byte("two"), []byte("four"), []byte("six")}
	db, _ := Open(DefaultConfig(), keys, bodies)
	defer db.Close()
	db.Insert(5, []byte("five"))
	db.Delete(4)
	db.Scan(0, 10, func(key uint64, body []byte) bool {
		fmt.Printf("%d=%s\n", key, body)
		return true
	})
	// Output:
	// 2=two
	// 5=five
	// 6=six
}

func TestMigrateStepSweep(t *testing.T) {
	db := loadDB(t, 3000, smallCfg())
	defer db.Close()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 3000; i++ {
		key := uint64(rng.Intn(7000)) + 1
		if err := db.Insert(key, []byte(fmt.Sprintf("v-%d-%d-padpadpadpadpad", key, i))); err != nil {
			t.Fatal(err)
		}
	}
	before := snapshot(t, db)
	steps := 0
	for {
		done, err := db.MigrateStep(20)
		if err != nil {
			t.Fatal(err)
		}
		steps++
		if done {
			break
		}
		if steps > 50 {
			t.Fatal("sweep never completed")
		}
	}
	if steps < 2 {
		t.Fatalf("sweep completed in %d steps, want several", steps)
	}
	after := snapshot(t, db)
	if len(before) != len(after) {
		t.Fatalf("incremental migration changed visible rows: %d -> %d", len(before), len(after))
	}
	if db.Stats().Runs != 0 {
		t.Fatalf("%d runs left after sweep", db.Stats().Runs)
	}
}

func TestScanAndMigrate(t *testing.T) {
	db := loadDB(t, 1500, smallCfg())
	defer db.Close()
	for i := 0; i < 1000; i++ {
		key := uint64((i*7)%4000) + 1
		if err := db.Insert(key, []byte(fmt.Sprintf("c-%d-%d-padpadpadpad", key, i))); err != nil {
			t.Fatal(err)
		}
	}
	want := snapshot(t, db)
	got := make(map[uint64][]byte)
	if err := db.ScanAndMigrate(func(key uint64, body []byte) bool {
		got[key] = append([]byte(nil), body...)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("coordinated scan emitted %d rows, want %d", len(got), len(want))
	}
	for k, v := range want {
		if !bytes.Equal(got[k], v) {
			t.Fatalf("key %d mismatch", k)
		}
	}
	if db.Stats().Runs != 0 {
		t.Fatal("runs left after coordinated migration")
	}
}
