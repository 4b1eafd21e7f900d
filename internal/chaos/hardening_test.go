package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"masm"
	core "masm/internal/masm"
	"masm/internal/sim"
	"masm/internal/storage"
	"masm/internal/table"
	"masm/internal/update"
)

// ENOSPC/EIO hardening: a write that fails mid-run must leave the engine
// usable and lossless (the ENOSPC-like contract: acknowledged updates
// stay readable, later operations succeed) and must never corrupt the
// manifest. Exercised on the file backend through the engine and on
// MemBackend through a core store.

// openHardeningEngine opens a file-backed engine with fault backends on
// every file.
func openHardeningEngine(t *testing.T, dir string) (*masm.Engine, map[string]*FaultBackend) {
	t.Helper()
	backends := make(map[string]*FaultBackend)
	opts := masm.EngineDirOptions{Config: sweepConfig(), DataBytes: 512 << 20}
	opts.WrapBackend = func(name string, be storage.Backend) storage.Backend {
		fb := NewFaultBackend(be, name, 7)
		backends[roleFor(name)] = fb
		return fb
	}
	eng, err := masm.OpenEngineDir(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return eng, backends
}

// assertUsable verifies the engine still serves reads and writes and its
// invariants (including the on-disk manifest) hold.
func assertUsable(t *testing.T, eng *masm.Engine, tbl *masm.Table, keys map[uint64][]byte, when string) {
	t.Helper()
	if err := eng.CheckInvariants(); err != nil {
		t.Fatalf("%s: invariants: %v", when, err)
	}
	for k, want := range keys {
		got, ok, err := tbl.Get(k)
		if err != nil || !ok || !bytes.Equal(got, want) {
			t.Fatalf("%s: acknowledged key %d unreadable: %q %v %v (ENOSPC-like failures must be lossless)", when, k, got, ok, err)
		}
	}
	probe := uint64(999_001)
	if err := tbl.Insert(probe, []byte("post-fault insert")); err != nil {
		t.Fatalf("%s: engine unusable after injected fault: %v", when, err)
	}
	got, ok, err := tbl.Get(probe)
	if err != nil || !ok || !bytes.Equal(got, []byte("post-fault insert")) {
		t.Fatalf("%s: post-fault insert unreadable: %v %v", when, ok, err)
	}
	if err := tbl.Delete(probe); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
}

// TestEngineFlushENOSPCOnCacheWrite: the flush's run write fails with
// ENOSPC; the drained records must return to the buffer, stay readable,
// and a later flush must succeed.
func TestEngineFlushENOSPCOnCacheWrite(t *testing.T) {
	dir := t.TempDir()
	eng, backends := openHardeningEngine(t, dir)
	defer eng.Close()
	keys, bodies := sweepBase()
	tbl, err := eng.CreateTable("h", masm.TableOptions{Keys: keys, Bodies: bodies})
	if err != nil {
		t.Fatal(err)
	}
	acked := make(map[uint64][]byte)
	for i := 0; i < 40; i++ {
		k := uint64(2*i + 1)
		b := []byte(fmt.Sprintf("acked %04d", k))
		if err := tbl.Insert(k, b); err != nil {
			t.Fatal(err)
		}
		acked[k] = b
	}
	cache := backends["cache"]
	cache.SetPlan(Plan{FailWrite: map[int64]error{cache.Writes() + 1: ErrInjectedENOSPC}})
	if err := tbl.Flush(); !errors.Is(err, ErrInjected) {
		t.Fatalf("flush with failing run write: err = %v, want the injected ENOSPC", err)
	}
	cache.SetPlan(Plan{})
	assertUsable(t, eng, tbl, acked, "after ENOSPC run write")
	if err := tbl.Flush(); err != nil {
		t.Fatalf("second flush after transient ENOSPC: %v", err)
	}
	assertUsable(t, eng, tbl, acked, "after recovery flush")

	// The full round trip: a clean reopen loses nothing.
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	eng2, _ := openHardeningEngine(t, dir)
	defer eng2.Close()
	tbl2, err := eng2.OpenTable("h")
	if err != nil {
		t.Fatal(err)
	}
	assertUsable(t, eng2, tbl2, acked, "after reopen")
}

// TestEngineFlushEIOOnRunSync: the flush succeeds its writes but the
// write-ahead run fsync (wal.Hooks.SyncRuns) fails — the path the chaos
// work re-ordered so the flush unwinds completely instead of publishing
// a run whose record never became durable.
func TestEngineFlushEIOOnRunSync(t *testing.T) {
	dir := t.TempDir()
	eng, backends := openHardeningEngine(t, dir)
	defer eng.Close()
	keys, bodies := sweepBase()
	tbl, err := eng.CreateTable("h", masm.TableOptions{Keys: keys, Bodies: bodies})
	if err != nil {
		t.Fatal(err)
	}
	acked := make(map[uint64][]byte)
	for i := 0; i < 40; i++ {
		k := uint64(2*i + 1)
		b := []byte(fmt.Sprintf("acked %04d", k))
		if err := tbl.Insert(k, b); err != nil {
			t.Fatal(err)
		}
		acked[k] = b
	}
	cache := backends["cache"]
	cache.SetPlan(Plan{FailSync: map[int64]error{cache.Syncs() + 1: ErrInjectedEIO}})
	if err := tbl.Flush(); !errors.Is(err, ErrInjected) {
		t.Fatalf("flush with failing run fsync: err = %v, want the injected EIO", err)
	}
	cache.SetPlan(Plan{})
	if runs := tbl.Stats().Runs; runs != 0 {
		t.Fatalf("failed flush left %d runs published without a durable record", runs)
	}
	assertUsable(t, eng, tbl, acked, "after EIO run fsync")
	if err := tbl.Flush(); err != nil {
		t.Fatalf("second flush: %v", err)
	}
	// A crash right now must still recover every acknowledged update.
	if err := eng.Sync(); err != nil {
		t.Fatal(err)
	}
	eng.HardStop()
	eng2, _ := openHardeningEngine(t, dir)
	defer eng2.Close()
	tbl2, err := eng2.OpenTable("h")
	if err != nil {
		t.Fatal(err)
	}
	assertUsable(t, eng2, tbl2, acked, "after crash")
}

// TestEngineWALSyncEIO: a transient EIO on the redo log's fsync fails the
// Sync call but loses nothing; the next Sync makes everything durable.
func TestEngineWALSyncEIO(t *testing.T) {
	dir := t.TempDir()
	eng, backends := openHardeningEngine(t, dir)
	defer eng.Close()
	keys, bodies := sweepBase()
	tbl, err := eng.CreateTable("h", masm.TableOptions{Keys: keys, Bodies: bodies})
	if err != nil {
		t.Fatal(err)
	}
	acked := make(map[uint64][]byte)
	for i := 0; i < 10; i++ {
		k := uint64(2*i + 1)
		b := []byte(fmt.Sprintf("acked %04d", k))
		if err := tbl.Insert(k, b); err != nil {
			t.Fatal(err)
		}
		acked[k] = b
	}
	wal := backends["wal"]
	wal.SetPlan(Plan{FailSync: map[int64]error{wal.Syncs() + 1: ErrInjectedEIO}})
	if err := eng.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("sync with failing WAL fsync: err = %v", err)
	}
	wal.SetPlan(Plan{})
	assertUsable(t, eng, tbl, acked, "after EIO WAL fsync")
	if err := eng.Sync(); err != nil {
		t.Fatalf("retried sync: %v", err)
	}
	eng.HardStop()
	eng2, _ := openHardeningEngine(t, dir)
	defer eng2.Close()
	tbl2, err := eng2.OpenTable("h")
	if err != nil {
		t.Fatal(err)
	}
	assertUsable(t, eng2, tbl2, acked, "after crash following retried sync")
}

// TestCoreStoreENOSPCOnMemBackend runs the same lossless contract against
// a core store whose SSD volume sits on a fault-wrapped MemBackend: the
// failing write surfaces, the drained records stay readable through a
// query, and the next flush succeeds.
func TestCoreStoreENOSPCOnMemBackend(t *testing.T) {
	hdd := sim.NewDevice(sim.Barracuda7200())
	ssdDev := sim.NewDevice(sim.IntelX25E())
	keys, bodies := sweepBase()
	dataVol, err := storage.NewVolume(hdd, 0, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := table.Load(dataVol, table.DefaultConfig(), keys, bodies)
	if err != nil {
		t.Fatal(err)
	}
	fb := NewFaultBackend(storage.NewMemBackend(16<<20), "ssd", 7)
	ssdVol, err := storage.NewVolumeOn(ssdDev, 0, fb)
	if err != nil {
		t.Fatal(err)
	}
	ccfg := core.DefaultConfig(8 << 20)
	ccfg.SSDPage = 4 << 10
	alloc := core.NewSharedAlloc(ssdVol.Size()).Partition(0, ssdVol.Size())
	store, err := core.NewStore(ccfg, tbl, ssdVol, &core.Oracle{}, nil, alloc, nil)
	if err != nil {
		t.Fatal(err)
	}
	now := sim.Time(0)
	acked := make(map[uint64][]byte)
	for i := 0; i < 40; i++ {
		k := uint64(2*i + 1)
		b := []byte(fmt.Sprintf("acked %04d", k))
		if now, err = store.ApplyAuto(now, update.Record{Key: k, Op: update.Insert, Payload: b}); err != nil {
			t.Fatal(err)
		}
		acked[k] = b
	}
	fb.SetPlan(Plan{FailWrite: map[int64]error{fb.Writes() + 1: ErrInjectedENOSPC}})
	if _, err := store.Flush(now); !errors.Is(err, ErrInjected) {
		t.Fatalf("flush on failing MemBackend write: %v", err)
	}
	fb.SetPlan(Plan{})
	// Everything acknowledged stays readable via a query.
	readAll := func() map[uint64][]byte {
		q, err := store.NewQuery(now, 0, ^uint64(0), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer q.Close()
		got := make(map[uint64][]byte)
		if err := q.Each(func(key uint64, body []byte) bool {
			got[key] = append([]byte(nil), body...)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}
	got := readAll()
	for k, want := range acked {
		if !bytes.Equal(got[k], want) {
			t.Fatalf("key %d lost by failed flush on MemBackend: %q", k, got[k])
		}
	}
	if _, err := store.Flush(now); err != nil {
		t.Fatalf("second flush: %v", err)
	}
	if store.Runs() != 1 {
		t.Fatalf("runs after recovery flush: %d", store.Runs())
	}
	got = readAll()
	for k, want := range acked {
		if !bytes.Equal(got[k], want) {
			t.Fatalf("key %d lost after recovery flush: %q", k, got[k])
		}
	}
	if _, err := store.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
