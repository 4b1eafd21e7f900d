package chaos

import (
	"bytes"
	"fmt"
	"testing"

	"masm"
	"masm/internal/storage"
)

// Seed-115 regression (found by the PR 5 chaos harness, shrunk to a
// 30-op trace): when only a subset of one checkpoint interval's main.data
// page writes survives a crash, in-place migration can persist a
// rewritten base page (stamped migTS) without the overflow page holding
// its spilled rows; the redo's page-timestamp check then skips the
// stamped page and the spilled rows are silently lost. Shadow-paged
// migration closes the hole: modified pages go to freshly allocated
// slots and the ref table flips atomically at the manifest commit, so a
// crash at any byte of the migration leaves the complete old page set
// authoritative. The test pins that the scenario loses nothing.

// partialSurvivalSeeds is how many survivor-lottery seeds the test runs.
const partialSurvivalSeeds = 8

// openRegressionEngine opens dir with a FaultBackend on every file, the
// data backend's survivor lottery driven by seed.
func openRegressionEngine(t *testing.T, dir string, seed int64) (*masm.Engine, map[string]*FaultBackend) {
	t.Helper()
	backends := make(map[string]*FaultBackend)
	opts := masm.EngineDirOptions{Config: sweepConfig(), DataBytes: 128 << 20}
	opts.WrapBackend = func(name string, be storage.Backend) storage.Backend {
		fb := NewFaultBackend(be, name, seed^hashName(name))
		backends[roleFor(name)] = fb
		return fb
	}
	eng, err := masm.OpenEngineDir(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return eng, backends
}

// runPartialSurvivalScenario builds a table whose migration must split
// pages into overflow, commits an insert burst durably, cuts power at the
// migration commit's main.data fsync with a per-write survivor lottery,
// recovers, and compares the surviving state against everything
// acknowledged durable. It returns "" when nothing was lost, else a
// description of the first divergence.
func runPartialSurvivalScenario(t *testing.T, seed int64, keep float64) string {
	t.Helper()
	dir := t.TempDir()
	eng, backends := openRegressionEngine(t, dir, seed)
	defer eng.Close()

	keys, bodies := sweepBase()
	want := make(map[uint64][]byte, len(keys))
	for i, k := range keys {
		want[k] = bodies[i]
	}
	tbl, err := eng.CreateTable("reg", masm.TableOptions{Keys: keys, Bodies: bodies})
	if err != nil {
		t.Fatal(err)
	}
	// A burst of fresh odd-key inserts concentrated at the low end of the
	// key space: migrating them must split the first pages into overflow.
	for i := 0; i < 100; i++ {
		k := uint64(2*i + 3)
		b := []byte(fmt.Sprintf("spill row %08d ...................", k))
		if err := tbl.Insert(k, b); err != nil {
			t.Fatal(err)
		}
		want[k] = b
	}
	if err := eng.Sync(); err != nil {
		t.Fatal(err)
	}
	// Cut power at the migration commit's data fsync: an arbitrary subset
	// of the migration's main.data page writes reaches the platter.
	backends["data"].ArmCrashAtSync(1, keep, false)
	if err := tbl.Migrate(); err == nil {
		t.Fatal("migration survived the armed data-sync power cut")
	}
	for _, fb := range backends {
		fb.CrashNow()
	}
	eng.HardStop()

	eng2, _ := openRegressionEngine(t, dir, seed+1000)
	defer eng2.Close()
	if err := eng2.CheckInvariants(); err != nil {
		return fmt.Sprintf("invariants after recovery: %v", err)
	}
	tbl2, err := eng2.OpenTable("reg")
	if err != nil {
		t.Fatalf("OpenTable after recovery: %v", err)
	}
	got := make(map[uint64][]byte)
	if err := tbl2.Scan(0, ^uint64(0), func(k uint64, b []byte) bool {
		got[k] = append([]byte(nil), b...)
		return true
	}); err != nil {
		return fmt.Sprintf("post-recovery scan: %v", err)
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			return fmt.Sprintf("committed key %d vanished after migration crash (keep=%.2f)", k, keep)
		}
		if !bytes.Equal(g, w) {
			return fmt.Sprintf("committed key %d corrupted after migration crash: got %q want %q", k, g, w)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			return fmt.Sprintf("unexpected key %d appeared after migration crash", k)
		}
	}
	return ""
}

// TestMigrationPartialPageSurvival: under shadow-paged migration, no
// committed update may be lost for ANY per-write survivor subset of the
// migration's main.data writes — including the all-survive case, whose
// in-memory overflow links likewise died with the process.
func TestMigrationPartialPageSurvival(t *testing.T) {
	for seed := int64(1); seed <= partialSurvivalSeeds; seed++ {
		for _, keep := range []float64{0.5, 1.0} {
			t.Run(fmt.Sprintf("seed%d_keep%v", seed, keep), func(t *testing.T) {
				if lost := runPartialSurvivalScenario(t, seed, keep); lost != "" {
					t.Fatalf("shadow-paged migration lost a committed update: %s", lost)
				}
			})
		}
	}
}
