package masm

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"masm/internal/obs"
)

// MigrationScheduler runs migration off the update path for every table of
// an engine: a background goroutine watches cache occupancy and folds
// cached updates back into the main data — the paper's migration thread
// (§3.2), which "migrates when the system load is low or when updates
// reach e.g. 90% of the SSD size", generalized to the §5 shared cache.
//
// Arbitration is by cache-fill pressure rather than a single fill hint:
// each round the scheduler ranks the catalog's tables by occupancy and
// migrates, most-pressured first, every table at the migration threshold;
// and when the *total* cached bytes reach it for the engine's cache while
// no individual table has (many moderately busy tenants), it migrates the
// single largest consumer to relieve the shared pool. Write admission
// (Engine.admit) kicks it when a Table write or a commit finds its cache
// at the threshold, and a ticker retries while older scans temporarily
// block a migration. While it runs, writes into a cache at AdmitFill wait
// for its sweeps instead of overrunning the cache (see AdmitFill).
//
// Obtain one with Engine.StartMigrationScheduler. Stop is idempotent and is
// invoked automatically by Close.
type MigrationScheduler struct {
	eng      *Engine
	interval time.Duration
	kick     chan struct{}
	quit     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
	ran      atomic.Int64
	// failures counts the table migrations that failed inside a sweep
	// (masm_migration_failures).
	failures *obs.Counter
	// rejects counts the writes admission refused while this scheduler ran.
	// Its series is masm_server_backpressure_rejects, the name the
	// benchmark and dashboards read.
	rejects *obs.Counter

	mu      sync.Mutex
	byTable map[string]int64
	// swept, once a waiter has asked for it (nextSweep), is closed at the
	// end of the next sweep: writes waiting for migration wake on it.
	swept chan struct{}
}

// DefaultMigrationInterval is the polling cadence used when
// StartMigrationScheduler is given a non-positive interval. Kicks from
// write admission make the scheduler responsive regardless; the ticker
// exists to retry while open scans block migration.
const DefaultMigrationInterval = 50 * time.Millisecond

// StartMigrationScheduler starts (or returns the already-running)
// background migration scheduler for the whole catalog. interval is the
// retry/poll cadence; a non-positive value selects
// DefaultMigrationInterval. When a scheduler is already running, it is
// returned as-is and its original cadence is kept — Stop it first to
// change the interval. After Stop, a new scheduler may be started.
func (e *Engine) StartMigrationScheduler(interval time.Duration) (*MigrationScheduler, error) {
	if interval <= 0 {
		interval = DefaultMigrationInterval
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrClosed
	}
	if e.sched != nil {
		// A scheduler that is stopped or mid-Stop (quit closed, loop not
		// yet exited) must not be handed out as running — replace it. The
		// old loop exits on its own; a momentary overlap is harmless since
		// each store serializes its migrations, and the old Stop's detach
		// is conditional on e.sched still pointing at it.
		select {
		case <-e.sched.quit:
		default:
			return e.sched, nil
		}
	}
	ms := &MigrationScheduler{
		eng:      e,
		interval: interval,
		kick:     make(chan struct{}, 1),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
		byTable:  make(map[string]int64),
		failures: e.reg.Counter("masm_migration_failures"),
		rejects:  e.reg.Counter("masm_server_backpressure_rejects"),
	}
	e.sched = ms
	go ms.loop()
	return ms, nil
}

func (ms *MigrationScheduler) loop() {
	defer close(ms.done)
	tick := time.NewTicker(ms.interval)
	defer tick.Stop()
	for {
		select {
		case <-ms.quit:
			return
		case <-tick.C:
		case <-ms.kick:
		}
		if !ms.sweep() {
			return
		}
	}
}

// sweep drains the engine's cache pressure through migrateIfPressured —
// each round migrates the most-pressured table (or, under total-pool
// pressure, the largest consumer) until nothing qualifies; it reports
// false when the engine has closed and the loop should exit.
//
// A failing table does not end the round: it is quarantined for the rest
// of this sweep and arbitration continues, so one table with a broken
// migration path (a full redo device, say) cannot starve every other
// pressured table out of the kick that was already consumed. Each failure
// counts in masm_migration_failures; the scheduler retries on later
// sweeps.
func (ms *MigrationScheduler) sweep() bool {
	var skip map[string]bool
	for {
		name, ran, err := ms.eng.migrateIfPressured(skip)
		if errors.Is(err, ErrClosed) {
			return false
		}
		if err != nil {
			ms.failures.Inc()
			if name == "" {
				// Engine-level failure with no table to quarantine; give
				// up on this round and let the next tick retry.
				break
			}
			if skip == nil {
				skip = make(map[string]bool)
			}
			skip[name] = true
			continue
		}
		if !ran {
			break
		}
		ms.ran.Add(1)
		ms.mu.Lock()
		ms.byTable[name]++
		ms.mu.Unlock()
	}
	ms.mu.Lock()
	if ms.swept != nil {
		close(ms.swept)
		ms.swept = nil
	}
	ms.mu.Unlock()
	return true
}

// nextSweep returns a channel closed when the next sweep to end has ended.
func (ms *MigrationScheduler) nextSweep() <-chan struct{} {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if ms.swept == nil {
		ms.swept = make(chan struct{})
	}
	return ms.swept
}

// AdmitFill is the cache fill — a table's cached update bytes over its
// budget, or the engine's over its shared cache — at or above which a
// write waits for migration while a scheduler runs: a Table's Insert,
// Delete or Modify, or a transaction's Commit. It sits above
// DefaultConfig's 0.9 migration threshold, so a write held back only ever
// waits for a migration that is already due; an engine configured to
// migrate later admits writes up to its own threshold instead.
const AdmitFill = 0.95

// ErrBackpressure is returned by a Table write or EngineTx.Commit when,
// while a migration scheduler runs, migration has not brought the cache
// back under AdmitFill within the admission wait. Nothing of the write is
// published (a refused transaction is aborted); retry it after a backoff.
var ErrBackpressure = errors.New("masm: cache pressure: migration behind, retry after backoff")

// admitWait bounds a write's wait for migration: about twice a table's
// first migration on the benchmark's mixed dataset.
var admitWait = 2 * time.Second

// admit is write admission, for Table writes and EngineTx.Commit alike,
// and the one place a write compares a fill with the migration threshold.
// It reads the highest fill among tables and the shared cache once:
//
//   - with no scheduler running, or below MigrateThreshold, it returns
//     (nil, nil) and the write goes ahead;
//   - at MigrateThreshold it returns the scheduler as due, and the caller
//     kicks it once the write is published (kicked sooner, a committing
//     transaction's own snapshot would veto the migration);
//   - at AdmitFill (or the threshold, if higher) it first calls release
//     (if not nil: a commit drops its snapshots there, or its own reader
//     would veto the migration it waits for), kicks the scheduler, and
//     waits for sweeps, holding no engine lock, until the fill is back
//     under; after admitWait it returns ErrBackpressure.
func (e *Engine) admit(release func(), tables ...*Table) (due *MigrationScheduler, err error) {
	e.mu.RLock()
	ms := e.sched
	e.mu.RUnlock()
	if ms == nil || len(tables) == 0 {
		return nil, nil
	}
	fill := func() float64 {
		f := e.cacheFill()
		for _, t := range tables {
			f = max(f, t.CacheFill())
		}
		return f
	}
	threshold := e.cfg.MigrateThreshold
	limit := max(AdmitFill, threshold)
	f := fill()
	if f < threshold {
		return nil, nil
	}
	if f < limit {
		return ms, nil
	}
	if release != nil {
		release()
	}
	swept := ms.nextSweep()
	ms.Kick()
	deadline := time.NewTimer(admitWait)
	defer deadline.Stop()
	for {
		select {
		case <-swept:
		case <-ms.done:
			return nil, nil // stopped: the write goes ahead, or finds the engine closed
		case <-deadline.C:
			ms.rejects.Inc()
			return nil, ErrBackpressure
		}
		swept = ms.nextSweep()
		if fill() < limit {
			return ms, nil
		}
	}
}

// Kick asks the scheduler to check cache pressure now instead of waiting
// for the next tick. It never blocks.
func (ms *MigrationScheduler) Kick() {
	select {
	case ms.kick <- struct{}{}:
	default:
	}
}

// Migrations returns how many migrations the scheduler has run, across
// every table.
func (ms *MigrationScheduler) Migrations() int64 { return ms.ran.Load() }

// TableMigrations returns how many migrations the scheduler has run per
// table — which table each migrated run set belonged to.
func (ms *MigrationScheduler) TableMigrations() map[string]int64 {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	out := make(map[string]int64, len(ms.byTable))
	for k, v := range ms.byTable {
		out[k] = v
	}
	return out
}

// Stop halts the scheduler and waits for its goroutine to exit, then
// detaches it from the engine so a later StartMigrationScheduler starts a
// fresh one instead of returning this dead instance. Stop is idempotent
// and safe to call concurrently with Close.
func (ms *MigrationScheduler) Stop() {
	ms.stopOnce.Do(func() { close(ms.quit) })
	<-ms.done
	e := ms.eng
	e.mu.Lock()
	if e.sched == ms {
		e.sched = nil
	}
	e.mu.Unlock()
}
