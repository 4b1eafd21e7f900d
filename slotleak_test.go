package masm_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"masm"
	"masm/internal/chaos"
	"masm/internal/storage"
)

// Shadow-paged migration's slot-leak property: the free set is never
// persisted — recovery rederives it as the complement of the manifest's
// refs below the allocation cursor — so crash-looping a migration at
// its data fsync, any number of times with any survivor lottery, must
// leave the slot ledger at a fixed point: no slot leaks, the cursor
// never creeps, and recovering the same durable state twice yields a
// byte-for-byte identical ledger.

// ledgerString renders one table's slot ledger for exact comparison.
func ledgerString(t *masm.Table) string {
	live, free, retired, next := t.SlotLedger()
	return fmt.Sprintf("live=%d free=%d retired=%d next=%d", live, free, retired, next)
}

// leakBase is the table the crash loop modifies: 120 even keys.
func leakBase() ([]uint64, [][]byte) {
	keys := make([]uint64, 120)
	bodies := make([][]byte, len(keys))
	for i := range keys {
		keys[i] = uint64(2 * (i + 1))
		bodies[i] = []byte(fmt.Sprintf("sweep row %08d ........................", keys[i]))
	}
	return keys, bodies
}

// openLeakEngine opens dir with a FaultBackend on every file, keyed by
// file name, the survivor lotteries driven by seed.
func openLeakEngine(t *testing.T, dir string, seed int64) (*masm.Engine, map[string]*chaos.FaultBackend) {
	t.Helper()
	backends := make(map[string]*chaos.FaultBackend)
	cfg := masm.DefaultConfig()
	cfg.CacheBytes = 1 << 20
	opts := masm.EngineDirOptions{Config: cfg, DataBytes: 128 << 20}
	opts.WrapBackend = func(name string, be storage.Backend) storage.Backend {
		h := fnv.New64a()
		h.Write([]byte(name))
		fb := chaos.NewFaultBackend(be, name, seed^int64(h.Sum64()))
		backends[name] = fb
		return fb
	}
	eng, err := masm.OpenEngineDir(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return eng, backends
}

// copyEngineDir clones a (flat) engine directory byte for byte so the
// same durable state can be recovered twice independently.
func copyEngineDir(t *testing.T, src, dst string) {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	// SEEK_DATA/SEEK_HOLE walk the allocated extents so the copy skips
	// the data volume's holes — a dense read of the (mostly sparse)
	// 128 MB file would dominate the test's runtime.
	const seekData, seekHole = 3, 4
	for _, e := range ents {
		if e.IsDir() {
			t.Fatalf("engine dir contains unexpected subdirectory %q", e.Name())
		}
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		st, err := in.Stat()
		if err != nil {
			t.Fatal(err)
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		size := st.Size()
		for off := int64(0); off < size; {
			dataOff, err := in.Seek(off, seekData)
			if err != nil { // ENXIO: no data past off
				break
			}
			holeOff, err := in.Seek(dataOff, seekHole)
			if err != nil || holeOff > size {
				holeOff = size
			}
			b := make([]byte, holeOff-dataOff)
			if _, err := in.ReadAt(b, dataOff); err != nil {
				t.Fatal(err)
			}
			if _, err := out.WriteAt(b, dataOff); err != nil {
				t.Fatal(err)
			}
			off = holeOff
		}
		if err := out.Truncate(size); err != nil {
			t.Fatal(err)
		}
		if err := out.Close(); err != nil {
			t.Fatal(err)
		}
		in.Close()
	}
}

func TestMigrationCrashLoopLeaksNoSlots(t *testing.T) {
	dir := t.TempDir()

	// Seed the table durably, modify-only from here on: the page count —
	// and therefore the fixed-point ledger — stays constant.
	keys, bodies := leakBase()
	eng, _ := openLeakEngine(t, dir, 1)
	if _, err := eng.CreateTable("loop", masm.TableOptions{Keys: keys, Bodies: bodies}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Sync(); err != nil {
		t.Fatal(err)
	}
	eng.Close()

	var fixedPoint string
	for i := 0; i < 10; i++ {
		seed := int64(100 + i)
		keep := []float64{0, 0.5, 1.0}[i%3]
		eng, backends := openLeakEngine(t, dir, seed)
		tbl, err := eng.OpenTable("loop")
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			if err := tbl.Modify(k, 0, []byte(fmt.Sprintf("i%02d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Sync(); err != nil {
			t.Fatal(err)
		}
		// Everything acknowledged so far is durable; snapshot it as truth.
		want := make(map[uint64][]byte, len(keys))
		if err := tbl.Scan(0, ^uint64(0), func(k uint64, b []byte) bool {
			want[k] = append([]byte(nil), b...)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		// Cut power at the migration's main.data fsync with this round's
		// survivor lottery, then hard-stop the whole engine.
		backends["main.data"].ArmCrashAtSync(1, keep, false)
		if err := tbl.Migrate(); err == nil {
			t.Fatalf("round %d: migration survived the armed data-sync power cut", i)
		}
		for _, fb := range backends {
			fb.CrashNow()
		}
		eng.HardStop()

		// Clone the crashed dir BEFORE recovery runs: recovery itself redoes
		// the interrupted migration and appends to the durable state, so a
		// purity check must recover the identical bytes independently. The
		// first rounds cover each keep probability once; later rounds skip
		// the clone to keep the loop fast.
		var clone string
		if i < 3 {
			clone = t.TempDir()
			copyEngineDir(t, dir, clone)
		}

		// Recover and check: invariants hold, no committed row moved, and
		// the ledger is exactly the fixed point — every shadow slot the dead
		// migration allocated has been rederived as free or trimmed off the
		// cursor; nothing leaked, nothing lingers retired.
		eng2, _ := openLeakEngine(t, dir, seed+5000)
		if err := eng2.CheckInvariants(); err != nil {
			t.Fatalf("round %d: invariants after recovery: %v", i, err)
		}
		tbl2, err := eng2.OpenTable("loop")
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[uint64][]byte)
		if err := tbl2.Scan(0, ^uint64(0), func(k uint64, b []byte) bool {
			got[k] = append([]byte(nil), b...)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("round %d: %d rows after recovery, want %d", i, len(got), len(want))
		}
		for k, w := range want {
			if !bytes.Equal(got[k], w) {
				t.Fatalf("round %d: key %d = %q after recovery, want %q", i, k, got[k], w)
			}
		}
		ledger := ledgerString(tbl2)
		live, free, retired, next := tbl2.SlotLedger()
		if retired != 0 {
			t.Fatalf("round %d: recovery left slots behind: %s", i, ledger)
		}
		if live+free != next {
			t.Fatalf("round %d: slots leaked: %s", i, ledger)
		}
		if fixedPoint == "" {
			fixedPoint = ledger
		} else if ledger != fixedPoint {
			t.Fatalf("round %d: ledger drifted from fixed point:\n  was %s\n  now %s", i, fixedPoint, ledger)
		}
		eng2.Close()

		// Recovering the identical pre-recovery bytes must reproduce the
		// ledger byte for byte — it is a pure function of the durable state.
		if clone != "" {
			eng3, _ := openLeakEngine(t, clone, seed+5000)
			tbl3, err := eng3.OpenTable("loop")
			if err != nil {
				t.Fatal(err)
			}
			if again := ledgerString(tbl3); again != ledger {
				t.Fatalf("round %d: re-recovery ledger differs:\n  first  %s\n  second %s", i, ledger, again)
			}
			eng3.Close()
		}
	}
}
