// Package chaos is the deterministic whole-engine simulation harness: a
// seeded scenario runner that drives a multi-table masm.Engine end to end
// through randomized workloads over fault-injecting storage, checking
// every surviving state against an in-memory model oracle. Every failure
// reproduces from (seed, step) alone, and the runner auto-shrinks the
// operation trace to a minimal repro it prints as a runnable Go test.
//
// The style is FoundationDB's: the engine under test is the real engine
// (real WAL, real manifest, real recovery), but everything nondeterministic
// — scheduling, storage failures, crash points — is owned by the harness
// and derived from one seed. The pieces:
//
//   - FaultBackend (this file): a storage.Backend wrapper with a
//     write-back overlay, so un-fsynced writes really are volatile. It
//     counts writes and syncs, and can cut power at a chosen fsync point,
//     lie about an fsync, tear writes at a byte offset, flip bits on
//     reads, and fail any write/sync/read on schedule.
//   - Op/GenTrace (ops.go): the self-contained operation vocabulary and
//     the seeded trace generator (the deterministic cooperative
//     scheduler: one logical actor step per op, interleaving writers,
//     scanners, snapshots, transactions, migrations, crashes).
//   - model (model.go): the in-memory oracle — per-table expected state,
//     an acked-operation journal for committed-prefix durability checks,
//     snapshot copies for repeatability checks.
//   - Execute/Run (runner.go): drives the engine op by op, consults the
//     oracle, recovers from injected crashes, and hashes the final state.
//   - Shrink (shrink.go): delta-debugging minimization of a failing trace.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"

	"masm/internal/storage"
)

// ErrCrashed is returned by every operation on a FaultBackend after an
// injected crash: the simulated machine is off, and stays off until the
// harness "reboots" by reopening the directory over fresh backends.
var ErrCrashed = errors.New("chaos: injected crash (power off)")

// ErrInjected is the base of all scheduled I/O faults (EIO/ENOSPC-style
// errors, short writes). Engine paths are expected to surface these
// cleanly; tests match them with errors.Is.
var ErrInjected = errors.New("chaos: injected I/O fault")

// Plan schedules faults on one FaultBackend. All schedules are keyed by
// the backend's own operation counters (1-based: the first Sync is sync
// 1), so a plan plus a deterministic workload pins the exact I/O that
// fails. A zero Plan injects nothing.
type Plan struct {
	// CrashAtSync, when non-zero, cuts power at the start of the n-th
	// Sync call: the sync fails, un-flushed overlay writes survive only
	// per KeepProb/TornWrites, and every later operation returns
	// ErrCrashed. Crash-point sweeps drive this counter through every
	// fsync of a workload.
	CrashAtSync int64
	// DropSync lies at the listed sync points: success is reported but
	// the dirty overlay is silently discarded, exactly as if the engine
	// had skipped an fsync it was required to issue. This is the
	// planted-fault hook the oracle demonstrably catches.
	DropSync map[int64]bool
	// FailSync fails the n-th Sync with the given error; the overlay
	// stays dirty (nothing is lost, nothing is durable).
	FailSync map[int64]error
	// FailWrite fails the n-th WriteAt with the given error; no bytes are
	// applied.
	FailWrite map[int64]error
	// ShortWrite applies only the first k bytes of the n-th WriteAt and
	// fails it.
	ShortWrite map[int64]int
	// FailRead fails the n-th ReadAt with the given error.
	FailRead map[int64]error
	// FlipBitAtRead flips one bit (the given bit index, modulo the buffer
	// length) in the data returned by the n-th ReadAt — transient media
	// corruption for checksum-path tests.
	FlipBitAtRead map[int64]int
	// KeepProb is the probability, at a crash, that an un-synced overlay
	// write survives (the OS flushed that page on its own). Zero is the
	// strict adversary: everything since the last fsync is lost.
	KeepProb float64
	// TornWrites allows a surviving write to be torn at a random byte
	// offset during a crash, modelling a partial sector flush. Enable it
	// only for media whose format tolerates tears (the CRC-framed WAL);
	// in-place page writes have no torn-page protection by design — the
	// paper's recovery assumes page writes are atomic.
	TornWrites bool
}

// segment is one buffered (un-synced) write.
type segment struct {
	off  int64
	data []byte
}

// FaultBackend wraps a storage.Backend with a write-back overlay and a
// deterministic fault schedule. Writes buffer in the overlay; Sync flushes
// them to the inner backend and fsyncs it — so, unlike writing through, a
// crash genuinely loses whatever was never synced, on any inner backend
// (MemBackend or a filedev file alike). Reads see overlay bytes over inner
// bytes, like a page cache. It is safe for concurrent use.
type FaultBackend struct {
	mu      sync.Mutex
	inner   storage.Backend
	name    string
	rng     *rand.Rand
	plan    Plan
	dirty   []segment
	crashed bool
	writes  int64
	syncs   int64
	reads   int64
	onSync  func(sync int64)
}

var _ storage.Backend = (*FaultBackend)(nil)

// NewFaultBackend wraps inner. name labels the backend in errors and
// harness bookkeeping; seed drives the crash-survivor lottery (and only
// that — fault scheduling is exact, not random).
func NewFaultBackend(inner storage.Backend, name string, seed int64) *FaultBackend {
	return &FaultBackend{inner: inner, name: name, rng: rand.New(rand.NewSource(seed))}
}

// SetPlan replaces the fault schedule. Counters keep running; a plan
// installed mid-workload is keyed against the same counters Syncs and
// Writes report.
func (f *FaultBackend) SetPlan(p Plan) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.plan = p
}

// ArmCrashAtSync schedules a power cut at the delta-th Sync from now,
// with the given crash-survivor policy, keeping the rest of the plan.
func (f *FaultBackend) ArmCrashAtSync(delta int64, keepProb float64, torn bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.plan.CrashAtSync = f.syncs + delta
	f.plan.KeepProb = keepProb
	f.plan.TornWrites = torn
}

// Syncs returns how many Sync calls the backend has seen.
func (f *FaultBackend) Syncs() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.syncs
}

// Writes returns how many WriteAt calls the backend has seen.
func (f *FaultBackend) Writes() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.writes
}

// Crashed reports whether the backend has suffered an injected crash.
func (f *FaultBackend) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// CrashNow cuts power immediately: un-synced writes survive only per the
// plan's KeepProb/TornWrites lottery, and every later operation returns
// ErrCrashed. Idempotent.
func (f *FaultBackend) CrashNow() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashLocked()
}

// crashLocked applies the survivor lottery and turns the power off.
func (f *FaultBackend) crashLocked() {
	if f.crashed {
		return
	}
	f.crashed = true
	for _, seg := range f.dirty {
		if f.plan.KeepProb <= 0 || f.rng.Float64() >= f.plan.KeepProb {
			continue
		}
		data := seg.data
		if f.plan.TornWrites && len(data) > 1 && f.rng.Intn(4) == 0 {
			data = data[:1+f.rng.Intn(len(data)-1)]
		}
		// The surviving page-cache flush lands on the inner backend; an
		// error here would mean the inner medium itself failed, which the
		// harness does not model — the write is simply lost.
		_ = f.inner.WriteAt(data, seg.off)
	}
	f.dirty = nil
}

func (f *FaultBackend) crashErr() error {
	return fmt.Errorf("%s: %w", f.name, ErrCrashed)
}

// Size implements storage.Backend.
func (f *FaultBackend) Size() int64 { return f.inner.Size() }

// WriteAt implements storage.Backend: the write lands in the volatile
// overlay and reaches the inner backend only at the next successful Sync.
func (f *FaultBackend) WriteAt(p []byte, off int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return f.crashErr()
	}
	if off < 0 || off+int64(len(p)) > f.inner.Size() {
		return fmt.Errorf("chaos: %s: write [%d,+%d) outside capacity %d", f.name, off, len(p), f.inner.Size())
	}
	f.writes++
	if err, ok := f.plan.FailWrite[f.writes]; ok {
		return fmt.Errorf("%s: write %d: %w", f.name, f.writes, err)
	}
	if cut, ok := f.plan.ShortWrite[f.writes]; ok && cut < len(p) {
		if cut > 0 {
			f.dirty = append(f.dirty, segment{off: off, data: append([]byte(nil), p[:cut]...)})
		}
		return fmt.Errorf("%s: write %d: %w: short write (%d of %d bytes)", f.name, f.writes, ErrInjected, cut, len(p))
	}
	debugLog("WRITE %s off=%d len=%d (w#%d)", f.name, off, len(p), f.writes)
	f.dirty = append(f.dirty, segment{off: off, data: append([]byte(nil), p...)})
	return nil
}

// ReadAt implements storage.Backend: inner bytes patched with the overlay,
// newest write last (later writes win).
func (f *FaultBackend) ReadAt(p []byte, off int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return f.crashErr()
	}
	f.reads++
	if err, ok := f.plan.FailRead[f.reads]; ok {
		return fmt.Errorf("%s: read %d: %w", f.name, f.reads, err)
	}
	if err := f.inner.ReadAt(p, off); err != nil {
		return err
	}
	end := off + int64(len(p))
	for _, seg := range f.dirty {
		segEnd := seg.off + int64(len(seg.data))
		if seg.off >= end || segEnd <= off {
			continue
		}
		from := max64(seg.off, off)
		to := min64(segEnd, end)
		copy(p[from-off:to-off], seg.data[from-seg.off:to-seg.off])
	}
	if bit, ok := f.plan.FlipBitAtRead[f.reads]; ok && len(p) > 0 {
		p[(bit/8)%len(p)] ^= 1 << (bit % 8)
	}
	return nil
}

// Sync implements storage.Backend: the durability barrier, and the place
// crash points, lying fsyncs and sync failures trigger.
func (f *FaultBackend) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return f.crashErr()
	}
	f.syncs++
	k := f.syncs
	if err, ok := f.plan.FailSync[k]; ok {
		return fmt.Errorf("%s: sync %d: %w", f.name, k, err)
	}
	if f.plan.DropSync[k] {
		// The lying fsync: report success, lose the writes.
		f.dirty = nil
		return nil
	}
	if f.plan.CrashAtSync != 0 && k >= f.plan.CrashAtSync {
		f.crashLocked()
		return f.crashErr()
	}
	for _, seg := range f.dirty {
		if err := f.inner.WriteAt(seg.data, seg.off); err != nil {
			return err
		}
	}
	f.dirty = nil
	debugLog("SYNC %s #%d", f.name, k)
	if err := f.inner.Sync(); err != nil {
		return err
	}
	if f.onSync != nil {
		f.onSync(k)
	}
	return nil
}

// Close implements storage.Backend. It closes the inner backend WITHOUT
// flushing the overlay: Close is not a durability point (a clean engine
// shutdown syncs explicitly first; a hard stop closing un-synced state is
// exactly the crash the harness wants to model).
func (f *FaultBackend) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.dirty = nil
	return f.inner.Close()
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// debugIO gates per-I/O trace lines (CHAOS_DEBUG=1) — the fastest way to
// see which backend write clobbered what when diagnosing a repro.
var debugIO = os.Getenv("CHAOS_DEBUG") != ""

func debugLog(format string, args ...any) {
	if debugIO {
		fmt.Printf(format+"\n", args...)
	}
}
