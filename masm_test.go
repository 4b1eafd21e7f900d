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

// testTable names the one table each root test's engine serves.
const testTable = "t"

// openTable returns table testTable of a fresh in-memory engine (dir == "")
// or of the engine of directory dir, creating the table from opts when the
// catalog lacks it. Tests reach the engine through tbl.eng.
func openTable(t testing.TB, dir string, cfg Config, opts TableOptions) *Table {
	t.Helper()
	var e *Engine
	var err error
	if dir == "" {
		e, err = NewEngine(cfg)
	} else {
		e, err = OpenEngineDir(dir, EngineDirOptions{Config: cfg})
	}
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := e.OpenTable(testTable)
	if errors.Is(err, ErrNoTable) {
		tbl, err = e.CreateTable(testTable, opts)
	}
	if err != nil {
		e.Close()
		t.Fatal(err)
	}
	return tbl
}

// evenRows bulk-loads n rows with keys 2, 4, ..., 2n, leaving the odd keys
// free for inserts, and bodies fmt.Sprintf(format, key).
func evenRows(n int, format string) TableOptions {
	opts := TableOptions{Keys: make([]uint64, n), Bodies: make([][]byte, n)}
	for i := range opts.Keys {
		opts.Keys[i] = uint64(i+1) * 2
		opts.Bodies[i] = []byte(fmt.Sprintf(format, opts.Keys[i]))
	}
	return opts
}

// paddedRow is the body format of most in-memory tests' rows.
const paddedRow = "row-%06d-padding-padding-padding"

func smallCfg() Config {
	cfg := DefaultConfig()
	cfg.CacheBytes = 4 << 20
	return cfg
}

func TestOpenScan(t *testing.T) {
	tbl := openTable(t, "", smallCfg(), evenRows(1000, paddedRow))
	defer tbl.eng.Close()
	n := 0
	if err := tbl.Scan(0, ^uint64(0), func(key uint64, body []byte) bool {
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n != 1000 {
		t.Fatalf("scanned %d rows, want 1000", n)
	}
	if tbl.eng.Elapsed() <= 0 {
		t.Fatal("no simulated time consumed")
	}
}

func TestCRUDVisibleImmediately(t *testing.T) {
	tbl := openTable(t, "", smallCfg(), evenRows(100, paddedRow))
	defer tbl.eng.Close()
	if err := tbl.Insert(3, []byte("three")); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Delete(4); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Modify(6, 0, []byte("MOD")); err != nil {
		t.Fatal(err)
	}
	if body, ok, err := tbl.Get(3); err != nil || !ok || string(body) != "three" {
		t.Fatalf("get(3) = %q %v %v", body, ok, err)
	}
	if _, ok, err := tbl.Get(4); err != nil || ok {
		t.Fatalf("get(4) should be gone, err=%v", err)
	}
	if body, ok, _ := tbl.Get(6); !ok || !bytes.HasPrefix(body, []byte("MOD")) {
		t.Fatalf("get(6) = %q", body)
	}
}

func TestMigrateAndContinue(t *testing.T) {
	tbl := openTable(t, "", smallCfg(), evenRows(2000, paddedRow))
	defer tbl.eng.Close()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		key := uint64(rng.Intn(5000)) + 1
		switch rng.Intn(3) {
		case 0:
			if err := tbl.Insert(key, []byte(fmt.Sprintf("ins-%d-%d-padpadpadpad", key, i))); err != nil {
				t.Fatal(err)
			}
		case 1:
			if err := tbl.Delete(key); err != nil {
				t.Fatal(err)
			}
		default:
			if err := tbl.Modify(key, 0, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := scanAll(t, tbl)
	if err := tbl.Migrate(); err != nil {
		t.Fatal(err)
	}
	after := scanAll(t, tbl)
	if len(before) != len(after) {
		t.Fatalf("migration changed visible rows: %d -> %d", len(before), len(after))
	}
	for k, v := range before {
		if after[k] != v {
			t.Fatalf("key %d changed across migration", k)
		}
	}
	st := tbl.Stats()
	if st.Migrations != 1 || st.Runs != 0 {
		t.Fatalf("stats after migration: %+v", st)
	}
	if n := tbl.eng.Stats().SSDRandomWrites; n != 0 {
		t.Fatalf("%d random SSD writes (design goal 2 violated)", n)
	}
}

func TestMigrateIfPressured(t *testing.T) {
	cfg := smallCfg()
	cfg.MigrateThreshold = 0.05
	tbl := openTable(t, "", cfg, evenRows(1000, paddedRow))
	defer tbl.eng.Close()
	ran := false
	for i := 0; i < 20000 && !ran; i++ {
		if err := tbl.Modify(uint64(i%2000)+1, 0, []byte{byte(i), byte(i), byte(i), byte(i)}); err != nil {
			t.Fatal(err)
		}
		name, r, err := tbl.eng.MigrateIfPressured()
		if err != nil {
			t.Fatal(err)
		}
		if r && name != testTable {
			t.Fatalf("migrated %q, want %q", name, testTable)
		}
		if !r && tbl.CacheFill() >= cfg.MigrateThreshold {
			t.Fatalf("fill %.3f at the threshold, yet nothing migrated", tbl.CacheFill())
		}
		ran = r
	}
	if !ran {
		t.Fatal("threshold migration never triggered")
	}
}

func TestCrashRecovery(t *testing.T) {
	tbl := openTable(t, "", smallCfg(), evenRows(1500, paddedRow))
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2500; i++ {
		key := uint64(rng.Intn(4000)) + 1
		switch rng.Intn(3) {
		case 0:
			tbl.Insert(key, []byte(fmt.Sprintf("i-%d-%d-pad-pad-pad-pad", key, i)))
		case 1:
			tbl.Delete(key)
		default:
			tbl.Modify(key, 2, []byte{byte(i)})
		}
	}
	before := scanAll(t, tbl)
	// Group-committed tail entries are genuinely lost by a crash; sync
	// first so the snapshot is the durable state.
	if err := tbl.eng.Sync(); err != nil {
		t.Fatal(err)
	}
	e2, err := tbl.eng.Crash()
	if err != nil {
		t.Fatal(err)
	}
	tbl2, err := e2.OpenTable(testTable)
	if err != nil {
		t.Fatal(err)
	}
	after := scanAll(t, tbl2)
	if len(before) != len(after) {
		t.Fatalf("recovery lost rows: %d -> %d", len(before), len(after))
	}
	for k, v := range before {
		if after[k] != v {
			t.Fatalf("key %d differs after recovery", k)
		}
	}
	// A second crash must also recover (the new log is complete).
	if err := tbl2.eng.Sync(); err != nil {
		t.Fatal(err)
	}
	e3, err := e2.Crash()
	if err != nil {
		t.Fatal(err)
	}
	defer e3.Close()
	tbl3, err := e3.OpenTable(testTable)
	if err != nil {
		t.Fatal(err)
	}
	again := scanAll(t, tbl3)
	if len(again) != len(before) {
		t.Fatalf("second recovery lost rows: %d -> %d", len(before), len(again))
	}
}

func TestCrashWithoutLogRejected(t *testing.T) {
	cfg := smallCfg()
	cfg.DisableRedoLog = true
	tbl := openTable(t, "", cfg, evenRows(10, paddedRow))
	defer tbl.eng.Close()
	if _, err := tbl.eng.Crash(); err == nil {
		t.Fatal("crash recovery without redo log accepted")
	}
}

func TestClosedDB(t *testing.T) {
	tbl := openTable(t, "", smallCfg(), evenRows(10, paddedRow))
	tbl.eng.Close()
	if err := tbl.Insert(1, []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("insert on closed: %v", err)
	}
	if err := tbl.Scan(0, 10, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("scan on closed: %v", err)
	}
}

func TestTransactionsEndToEnd(t *testing.T) {
	tbl := openTable(t, "", smallCfg(), evenRows(500, paddedRow))
	defer tbl.eng.Close()
	tx, err := tbl.eng.BeginTx(TxSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert(testTable, 7, []byte("seven")); err != nil {
		t.Fatal(err)
	}
	seen := false
	if err := tx.Scan(testTable, 0, 10, func(key uint64, body []byte) bool {
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
	if _, ok, _ := tbl.Get(7); ok {
		t.Fatal("uncommitted insert visible outside transaction")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := tbl.Get(7); !ok {
		t.Fatal("committed insert invisible")
	}
	// Write-write conflict.
	a, errA := tbl.eng.BeginTx(TxSnapshot)
	b, errB := tbl.eng.BeginTx(TxSnapshot)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	a.Modify(testTable, 8, 0, []byte("A"))
	b.Modify(testTable, 8, 0, []byte("B"))
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
	tbl := openTable(t, "", smallCfg(), evenRows(10, paddedRow))
	defer tbl.eng.Close()
	tx, err := tbl.eng.BeginTx(TxSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	entry := map[string]func(off int) error{
		"Table.Modify":    func(off int) error { return tbl.Modify(2, off, []byte("x")) },
		"EngineTx.Modify": func(off int) error { return tx.Modify(testTable, 2, off, []byte("x")) },
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
	// Property: any sequence of CRUD operations leaves the table equal to a
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
		tbl := openTable(t, "", smallCfg(), TableOptions{Keys: keys, Bodies: bodies})
		defer tbl.eng.Close()
		for i := 0; i < 300; i++ {
			key := uint64(rng.Intn(500)) + 1
			switch rng.Intn(4) {
			case 0:
				body := []byte(fmt.Sprintf("n-%d-%d-yyyyyyyy", key, i))
				tbl.Insert(key, body)
				model[key] = body
			case 1:
				tbl.Delete(key)
				delete(model, key)
			case 2:
				if err := tbl.Modify(key, 1, []byte{byte(i)}); err != nil {
					return false
				}
				if old, ok := model[key]; ok && len(old) > 1 {
					nb := append([]byte(nil), old...)
					nb[1] = byte(i)
					model[key] = nb
				}
			default:
				if rng.Intn(10) == 0 {
					if err := tbl.Migrate(); err != nil {
						return false
					}
				}
			}
		}
		got := make(map[uint64][]byte)
		if err := tbl.Scan(0, ^uint64(0), func(k uint64, b []byte) bool {
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

func ExampleNewEngine() {
	eng, _ := NewEngine(DefaultConfig())
	defer eng.Close()
	tbl, _ := eng.CreateTable("numbers", TableOptions{
		Keys:   []uint64{2, 4, 6},
		Bodies: [][]byte{[]byte("two"), []byte("four"), []byte("six")},
	})
	tbl.Insert(5, []byte("five"))
	tbl.Delete(4)
	tbl.Scan(0, 10, func(key uint64, body []byte) bool {
		fmt.Printf("%d=%s\n", key, body)
		return true
	})
	// Output:
	// 2=two
	// 5=five
	// 6=six
}

func TestMigrateStepSweep(t *testing.T) {
	tbl := openTable(t, "", smallCfg(), evenRows(3000, paddedRow))
	defer tbl.eng.Close()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 3000; i++ {
		key := uint64(rng.Intn(7000)) + 1
		if err := tbl.Insert(key, []byte(fmt.Sprintf("v-%d-%d-padpadpadpadpad", key, i))); err != nil {
			t.Fatal(err)
		}
	}
	before := scanAll(t, tbl)
	if _, err := tbl.MigrateStep(0); err == nil {
		t.Fatal("MigrateStep(0) accepted")
	}
	steps := 0
	for {
		done, err := tbl.MigrateStep(20)
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
	after := scanAll(t, tbl)
	if len(before) != len(after) {
		t.Fatalf("incremental migration changed visible rows: %d -> %d", len(before), len(after))
	}
	if tbl.Stats().Runs != 0 {
		t.Fatalf("%d runs left after sweep", tbl.Stats().Runs)
	}
}
