package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"masm/internal/storage"
	"masm/internal/storage/filedev"
)

// innerBackends returns both inner backend types the wrapper must behave
// identically over: the in-memory backend and a real file.
func innerBackends(t *testing.T, size int64) map[string]storage.Backend {
	t.Helper()
	f, err := filedev.Open(filepath.Join(t.TempDir(), "fault.dat"), size)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return map[string]storage.Backend{
		"mem":     storage.NewMemBackend(size),
		"filedev": f,
	}
}

// TestFaultBackendVolatileUntilSync: writes are readable immediately but
// reach the inner backend only at Sync; a crash before Sync loses them
// (strict mode), after Sync keeps them — on both inner backend types.
func TestFaultBackendVolatileUntilSync(t *testing.T) {
	for name, inner := range innerBackends(t, 1<<16) {
		t.Run(name, func(t *testing.T) {
			fb := NewFaultBackend(inner, "x", 1)
			if err := fb.WriteAt([]byte("synced"), 0); err != nil {
				t.Fatal(err)
			}
			if err := fb.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := fb.WriteAt([]byte("volatile"), 100); err != nil {
				t.Fatal(err)
			}
			// Both visible through the wrapper (page-cache semantics).
			got := make([]byte, 8)
			if err := fb.ReadAt(got, 100); err != nil {
				t.Fatal(err)
			}
			if string(got) != "volatile" {
				t.Fatalf("read-your-writes broken: %q", got)
			}
			fb.CrashNow() // strict: KeepProb 0 drops the un-synced write
			if err := fb.WriteAt([]byte("zz"), 0); !errors.Is(err, ErrCrashed) {
				t.Fatalf("write after crash: %v", err)
			}
			if err := fb.Sync(); !errors.Is(err, ErrCrashed) {
				t.Fatalf("sync after crash: %v", err)
			}
			// The inner backend holds the synced write, not the volatile one.
			got = make([]byte, 6)
			if err := inner.ReadAt(got, 0); err != nil {
				t.Fatal(err)
			}
			if string(got) != "synced" {
				t.Fatalf("synced data lost: %q", got)
			}
			got = make([]byte, 8)
			if err := inner.ReadAt(got, 100); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, make([]byte, 8)) {
				t.Fatalf("un-synced write survived a strict crash: %q", got)
			}
		})
	}
}

// TestFaultBackendCrashAtSync: the n-th fsync cuts power; earlier syncs
// are genuine durability points.
func TestFaultBackendCrashAtSync(t *testing.T) {
	for name, inner := range innerBackends(t, 1<<16) {
		t.Run(name, func(t *testing.T) {
			fb := NewFaultBackend(inner, "x", 1)
			fb.SetPlan(Plan{CrashAtSync: 2})
			var durable []int64
			fb.SetOnSync(func(k int64) { durable = append(durable, k) })
			if err := fb.WriteAt([]byte("one"), 0); err != nil {
				t.Fatal(err)
			}
			if err := fb.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := fb.WriteAt([]byte("two"), 10); err != nil {
				t.Fatal(err)
			}
			if err := fb.Sync(); !errors.Is(err, ErrCrashed) {
				t.Fatalf("sync 2 should crash, got %v", err)
			}
			if !fb.Crashed() {
				t.Fatal("backend not marked crashed")
			}
			if len(durable) != 1 || durable[0] != 1 {
				t.Fatalf("durability callbacks %v, want [1]", durable)
			}
			got := make([]byte, 3)
			if err := inner.ReadAt(got, 10); err != nil {
				t.Fatal(err)
			}
			if string(got) == "two" {
				t.Fatal("write of the crashed batch became durable in strict mode")
			}
		})
	}
}

// TestFaultBackendLyingSync: DropSync reports success while discarding the
// writes — the planted "skipped fsync" bug the oracle must catch.
func TestFaultBackendLyingSync(t *testing.T) {
	inner := storage.NewMemBackend(1 << 16)
	fb := NewFaultBackend(inner, "x", 1)
	fb.SetPlan(Plan{DropSync: map[int64]bool{1: true}})
	if err := fb.WriteAt([]byte("gone"), 0); err != nil {
		t.Fatal(err)
	}
	if err := fb.Sync(); err != nil {
		t.Fatalf("lying sync must report success, got %v", err)
	}
	got := make([]byte, 4)
	if err := inner.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if string(got) == "gone" {
		t.Fatal("dropped sync still flushed the data")
	}
	// Later writes + genuine syncs work, leaving a durable hole behind.
	if err := fb.WriteAt([]byte("kept"), 10); err != nil {
		t.Fatal(err)
	}
	if err := fb.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := inner.ReadAt(got, 10); err != nil {
		t.Fatal(err)
	}
	if string(got) != "kept" {
		t.Fatalf("later sync broken: %q", got)
	}
}

// TestFaultBackendScheduledErrors: EIO/ENOSPC and short writes fire at
// their exact scheduled ordinals, on both inner backend types.
func TestFaultBackendScheduledErrors(t *testing.T) {
	for name, inner := range innerBackends(t, 1<<16) {
		t.Run(name, func(t *testing.T) {
			fb := NewFaultBackend(inner, "x", 1)
			fb.SetPlan(Plan{
				FailWrite:  map[int64]error{2: ErrInjectedENOSPC},
				ShortWrite: map[int64]int{3: 2},
				FailSync:   map[int64]error{2: ErrInjectedEIO},
				FailRead:   map[int64]error{2: ErrInjectedEIO},
			})
			if err := fb.WriteAt([]byte("ok"), 0); err != nil { // write 1
				t.Fatal(err)
			}
			if err := fb.WriteAt([]byte("fails"), 8); !errors.Is(err, ErrInjected) { // write 2
				t.Fatalf("scheduled ENOSPC missing: %v", err)
			}
			if err := fb.WriteAt([]byte("torn!"), 16); !errors.Is(err, ErrInjected) { // write 3
				t.Fatalf("scheduled short write missing: %v", err)
			}
			if err := fb.Sync(); err != nil { // sync 1 flushes writes 1 and the short prefix
				t.Fatal(err)
			}
			got := make([]byte, 5)
			if err := inner.ReadAt(got, 16); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, []byte{'t', 'o', 0, 0, 0}) {
				t.Fatalf("short write applied %q, want 2-byte prefix", got)
			}
			if err := fb.Sync(); !errors.Is(err, ErrInjected) { // sync 2
				t.Fatalf("scheduled sync EIO missing: %v", err)
			}
			buf := make([]byte, 2)
			if err := fb.ReadAt(buf, 0); err != nil { // read 1
				t.Fatal(err)
			}
			if err := fb.ReadAt(buf, 0); !errors.Is(err, ErrInjected) { // read 2
				t.Fatalf("scheduled read EIO missing: %v", err)
			}
		})
	}
}

// TestFaultBackendBitFlip: a scheduled read returns one flipped bit, and
// only that read.
func TestFaultBackendBitFlip(t *testing.T) {
	inner := storage.NewMemBackend(1 << 12)
	fb := NewFaultBackend(inner, "x", 1)
	fb.SetPlan(Plan{FlipBitAtRead: map[int64]int{1: 3}})
	if err := fb.WriteAt([]byte{0x00}, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 1)
	if err := fb.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if got[0] != 1<<3 {
		t.Fatalf("bit flip missing: %02x", got[0])
	}
	if err := fb.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 {
		t.Fatalf("bit flip not transient: %02x", got[0])
	}
}

// TestFaultBackendCrashSurvivors: with KeepProb=1 every un-synced write
// survives the crash (the OS flushed everything on its own); the lottery
// is seeded, so survival with 0<p<1 is deterministic per seed.
func TestFaultBackendCrashSurvivors(t *testing.T) {
	inner := storage.NewMemBackend(1 << 12)
	fb := NewFaultBackend(inner, "x", 7)
	fb.SetPlan(Plan{KeepProb: 1})
	if err := fb.WriteAt([]byte("abc"), 0); err != nil {
		t.Fatal(err)
	}
	fb.CrashNow()
	got := make([]byte, 3)
	if err := inner.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if string(got) != "abc" {
		t.Fatalf("KeepProb=1 write lost: %q", got)
	}
}

// SetOnSync installs a callback invoked (with the sync ordinal) after
// each genuine, successful durability point — crash-point sweeps use it
// to record what was acknowledged as durable when.
func (f *FaultBackend) SetOnSync(fn func(sync int64)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.onSync = fn
}

// Convenience fault values for Plan schedules.
var (
	ErrInjectedEIO    = fmt.Errorf("%w: input/output error", ErrInjected)
	ErrInjectedENOSPC = fmt.Errorf("%w: no space left on device", ErrInjected)
)
