package masm_test

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"masm"
	"masm/internal/chaos"
	"masm/internal/storage"
)

// rebuildMode selects how recovery reconstructs surviving runs: inline is
// the reference (each run rebuilt inside its table's restore, priced as it
// reads); concurrent is what every caller outside these tests gets
// (data-plane scans overlapped with replay, spans charged afterwards).
type rebuildMode bool

const (
	inline     rebuildMode = true
	concurrent rebuildMode = false
)

func (m rebuildMode) String() string {
	if m == inline {
		return "inline"
	}
	return "concurrent"
}

func (m rebuildMode) open(dir string, opts masm.EngineDirOptions) (*masm.Engine, error) {
	if m == inline {
		return masm.OpenEngineDirInlineRebuild(dir, opts)
	}
	return masm.OpenEngineDir(dir, opts)
}

func (m rebuildMode) crash(e *masm.Engine) (*masm.Engine, error) {
	if m == inline {
		return e.CrashInlineRebuild()
	}
	return e.Crash()
}

// TestRecoveryDifferential is the recovery oracle: for 50 seeded workloads
// it builds the same crashed state twice, recovers one with the inline
// rebuild and the other with the concurrent one, and demands identical
// results — the same catalog, the same rows in every table, and the same
// virtual clock. The concurrent shape reorders only data-plane scans; any
// divergence here means it leaked into priced state. The file-backed leg
// recovers two copies of one hard-stopped directory; the in-memory leg
// runs the workload on two engines and crashes each.
func TestRecoveryDifferential(t *testing.T) {
	const seeds = 50
	var fileRuns, memRuns int // surviving runs recovery had to rebuild
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("file/seed%d", seed), func(t *testing.T) {
			root := t.TempDir()
			dir := filepath.Join(root, "built")
			if err := os.Mkdir(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			buildDifferentialDir(t, dir, seed)
			copyDir := filepath.Join(root, "copy")
			copyDatabaseDir(t, dir, copyDir)
			ref := recoverAndFingerprint(t, dir, inline)
			compareFingerprints(t, ref, recoverAndFingerprint(t, copyDir, concurrent))
			fileRuns += ref.runs
		})
		t.Run(fmt.Sprintf("mem/seed%d", seed), func(t *testing.T) {
			var fps [2]dirFingerprint
			for i, mode := range []rebuildMode{inline, concurrent} {
				eng, err := masm.NewEngine(differentialOpts().Config)
				if err != nil {
					t.Fatal(err)
				}
				runDifferentialWorkload(t, eng, seed)
				eng2, err := mode.crash(eng)
				if err != nil {
					t.Fatalf("crash (%v rebuild): %v", mode, err)
				}
				fps[i] = fingerprint(t, eng2, mode)
			}
			compareFingerprints(t, fps[0], fps[1])
			memRuns += fps[0].runs
		})
	}
	if fileRuns == 0 || memRuns == 0 {
		t.Fatalf("differential vacuous: %d file-backed and %d in-memory runs survived to be rebuilt", fileRuns, memRuns)
	}
}

func compareFingerprints(t *testing.T, ref, got dirFingerprint) {
	t.Helper()
	if ref.elapsed != got.elapsed {
		t.Fatalf("virtual clock diverged: inline %d, concurrent %d", ref.elapsed, got.elapsed)
	}
	if len(ref.tables) != len(got.tables) {
		t.Fatalf("catalog diverged: inline %v, concurrent %v", tableNames(ref), tableNames(got))
	}
	for i := range ref.tables {
		rt, gt := ref.tables[i], got.tables[i]
		if rt.name != gt.name || rt.id != gt.id {
			t.Fatalf("table %d diverged: inline %q/%d, concurrent %q/%d", i, rt.name, rt.id, gt.name, gt.id)
		}
		if len(rt.rows) != len(gt.rows) {
			t.Fatalf("table %q row count diverged: inline %d, concurrent %d", rt.name, len(rt.rows), len(gt.rows))
		}
		for j := range rt.rows {
			if rt.rows[j] != gt.rows[j] {
				t.Fatalf("table %q row %d diverged:\n  inline     %q\n  concurrent %q",
					rt.name, j, rt.rows[j], gt.rows[j])
			}
		}
	}
}

// TestRecoveryDifferentialCrashSweep interrupts recovery itself — once
// under the concurrent rebuild, once under the inline one — and then
// finishes the job with the OTHER mode. The crash points are probed, not
// assumed: a throwaway recovery counts the checkpoint log's fsyncs and
// writes, and the sweep then cuts power at every fsync and fails writes
// spread across the rewrite (first, middle, last). An interrupted
// recovery must leave the old log authoritative regardless of which mode
// was interrupted, and the surviving state must not depend on which mode
// completes it.
func TestRecoveryDifferentialCrashSweep(t *testing.T) {
	for i, first := range []rebuildMode{concurrent, inline} {
		first := first
		other := !first
		seed := int64(7 * (i + 1))
		t.Run(fmt.Sprintf("crash_%v", first), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "db")
			if err := os.Mkdir(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			buildDifferentialDir(t, dir, seed)
			want := recoverAndFingerprintCopy(t, dir, other)

			// Probe the crashing mode's checkpoint-log I/O shape on a copy.
			probeDir := filepath.Join(t.TempDir(), "probe")
			copyDatabaseDir(t, dir, probeDir)
			var newWal *chaos.FaultBackend
			popts := differentialOpts()
			popts.WrapBackend = func(name string, be storage.Backend) storage.Backend {
				fb := chaos.NewFaultBackend(be, name, 42)
				if name == "wal.log.new" {
					newWal = fb
				}
				return fb
			}
			peng, err := first.open(probeDir, popts)
			if err != nil {
				t.Fatal(err)
			}
			syncs, writes := newWal.Syncs(), newWal.Writes()
			if err := peng.Close(); err != nil {
				t.Fatal(err)
			}
			if syncs < 1 || writes < 1 {
				t.Fatalf("sweep vacuous: recovery issued %d checkpoint-log fsyncs, %d writes", syncs, writes)
			}

			var plans []chaos.Plan
			for k := int64(1); k <= syncs; k++ {
				plans = append(plans, chaos.Plan{CrashAtSync: k})
			}
			seenW := map[int64]bool{}
			for _, w := range []int64{1, (writes + 1) / 2, writes} {
				if !seenW[w] {
					seenW[w] = true
					plans = append(plans, chaos.Plan{FailWrite: map[int64]error{w: chaos.ErrInjected}})
				}
			}
			for pi, plan := range plans {
				plan := plan
				crashDir := filepath.Join(t.TempDir(), "crash")
				copyDatabaseDir(t, dir, crashDir)
				opts := differentialOpts()
				opts.WrapBackend = func(name string, be storage.Backend) storage.Backend {
					fb := chaos.NewFaultBackend(be, name, 42)
					if name == "wal.log.new" {
						fb.SetPlan(plan)
					}
					return fb
				}
				if _, err := first.open(crashDir, opts); err == nil {
					t.Fatalf("recovery (%v rebuild) survived crash plan %d (%+v)", first, pi, plan)
				}
				got := recoverAndFingerprint(t, crashDir, other)
				if got.elapsed != want.elapsed || len(got.tables) != len(want.tables) {
					t.Fatalf("state after interrupted %v-rebuild recovery (plan %d) diverged: clock %d vs %d, %d vs %d tables",
						first, pi, got.elapsed, want.elapsed, len(got.tables), len(want.tables))
				}
				for i := range got.tables {
					g, w := got.tables[i], want.tables[i]
					if g.name != w.name || len(g.rows) != len(w.rows) {
						t.Fatalf("table %q diverged after interrupted recovery (%d vs %d rows)", g.name, len(g.rows), len(w.rows))
					}
					for j := range g.rows {
						if g.rows[j] != w.rows[j] {
							t.Fatalf("table %q row %d diverged after interrupted recovery", g.name, j)
						}
					}
				}
			}
		})
	}
}

type tableFingerprint struct {
	name string
	id   uint32
	rows []string // "key\x00body" in scan order
}

type dirFingerprint struct {
	elapsed int64
	runs    int // materialized runs across all tables, right after recovery
	tables  []tableFingerprint
}

func tableNames(f dirFingerprint) []string {
	names := make([]string, len(f.tables))
	for i, tb := range f.tables {
		names[i] = tb.name
	}
	return names
}

func differentialOpts() masm.EngineDirOptions {
	cfg := masm.DefaultConfig()
	cfg.CacheBytes = 4 << 20
	return masm.EngineDirOptions{Config: cfg, DataBytes: 1 << 30}
}

// buildDifferentialDir runs the seeded workload on a fresh directory and
// hard-stops mid-flight, leaving materialized runs, a pending tail, and
// sometimes an interrupted migration for recovery.
func buildDifferentialDir(t *testing.T, dir string, seed int64) {
	t.Helper()
	eng, err := masm.OpenEngineDir(dir, differentialOpts())
	if err != nil {
		t.Fatal(err)
	}
	runDifferentialWorkload(t, eng, seed)
	if err := eng.HardStop(); err != nil {
		t.Fatal(err)
	}
}

// runDifferentialWorkload is a seeded random workload — several tables,
// interleaved inserts/deletes, explicit syncs, flushes and the occasional
// migration — ending on a Sync.
func runDifferentialWorkload(t *testing.T, eng *masm.Engine, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nTables := 2 + rng.Intn(3)
	tbls := make([]*masm.Table, nTables)
	for i := range tbls {
		n := 64 + rng.Intn(192)
		keys := make([]uint64, n)
		bodies := make([][]byte, n)
		for j := range keys {
			keys[j] = uint64(j+1) * 4
			bodies[j] = []byte(fmt.Sprintf("seed%d-t%d-row%05d-%016x", seed, i, j, rng.Uint64()))
		}
		var err error
		tbls[i], err = eng.CreateTable(fmt.Sprintf("t%d", i), masm.TableOptions{Keys: keys, Bodies: bodies})
		if err != nil {
			t.Fatal(err)
		}
	}
	steps := 300 + rng.Intn(300)
	for s := 0; s < steps; s++ {
		tbl := tbls[rng.Intn(nTables)]
		switch r := rng.Intn(100); {
		case r < 70:
			key := rng.Uint64() % 4096
			body := fmt.Sprintf("upd-%d-%d-%016x", s, key, rng.Uint64())
			if err := tbl.Insert(key, []byte(body)); err != nil {
				t.Fatal(err)
			}
		case r < 80:
			if err := tbl.Delete(rng.Uint64() % 4096); err != nil {
				t.Fatal(err)
			}
		case r < 92:
			if err := eng.Sync(); err != nil {
				t.Fatal(err)
			}
		case r < 98:
			if err := tbl.Flush(); err != nil {
				t.Fatal(err)
			}
		default:
			if err := tbl.Migrate(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := eng.Sync(); err != nil {
		t.Fatal(err)
	}
}

// recoverAndFingerprint opens dir with the given rebuild mode,
// fingerprints the recovered engine, verifies invariants, and closes it.
func recoverAndFingerprint(t *testing.T, dir string, mode rebuildMode) dirFingerprint {
	t.Helper()
	eng, err := mode.open(dir, differentialOpts())
	if err != nil {
		t.Fatalf("recover (%v rebuild): %v", mode, err)
	}
	return fingerprint(t, eng, mode)
}

// fingerprint verifies eng's invariants, records its clock and every
// table's rows, and closes it.
func fingerprint(t *testing.T, eng *masm.Engine, mode rebuildMode) dirFingerprint {
	t.Helper()
	defer eng.Close()
	if err := eng.CheckInvariants(); err != nil {
		t.Fatalf("invariants (%v rebuild): %v", mode, err)
	}
	f := dirFingerprint{elapsed: int64(eng.Elapsed())}
	for _, ts := range eng.Stats().Tables {
		f.runs += ts.Runs
	}
	for _, name := range eng.Tables() {
		tbl, err := eng.OpenTable(name)
		if err != nil {
			t.Fatal(err)
		}
		tf := tableFingerprint{name: name, id: tbl.ID()}
		err = tbl.Scan(0, ^uint64(0), func(k uint64, b []byte) bool {
			tf.rows = append(tf.rows, fmt.Sprintf("%d\x00%s", k, b))
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		f.tables = append(f.tables, tf)
	}
	return f
}

// recoverAndFingerprintCopy fingerprints a recovery of dir without
// disturbing it, by working on a throwaway copy.
func recoverAndFingerprintCopy(t *testing.T, dir string, mode rebuildMode) dirFingerprint {
	t.Helper()
	cp := filepath.Join(t.TempDir(), "fpcopy")
	copyDatabaseDir(t, dir, cp)
	return recoverAndFingerprint(t, cp, mode)
}

// copyDatabaseDir clones a database directory file by file (flat layout),
// preserving sparseness: SEEK_DATA/SEEK_HOLE walks only the allocated
// extents, so cloning a mostly-empty heap costs its live bytes — reading
// the holes of fifty multi-hundred-megabyte heaps is what turned an
// earlier version of this test into a ten-minute crawl.
func copyDatabaseDir(t *testing.T, src, dst string) {
	t.Helper()
	const (
		seekData = 3 // unix SEEK_DATA
		seekHole = 4 // unix SEEK_HOLE
	)
	if err := os.Mkdir(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1<<20)
	for _, ent := range ents {
		in, err := os.Open(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out, err := os.Create(filepath.Join(dst, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		info, err := in.Stat()
		if err != nil {
			t.Fatal(err)
		}
		size := info.Size()
		for off := int64(0); off < size; {
			dataOff, serr := in.Seek(off, seekData)
			if errors.Is(serr, syscall.ENXIO) {
				break // nothing but hole to EOF
			}
			if serr != nil {
				t.Fatal(serr)
			}
			holeOff, serr := in.Seek(dataOff, seekHole)
			if serr != nil {
				t.Fatal(serr)
			}
			for dataOff < holeOff {
				n := int64(len(buf))
				if n > holeOff-dataOff {
					n = holeOff - dataOff
				}
				if _, err := in.ReadAt(buf[:n], dataOff); err != nil {
					t.Fatal(err)
				}
				if _, err := out.WriteAt(buf[:n], dataOff); err != nil {
					t.Fatal(err)
				}
				dataOff += n
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
