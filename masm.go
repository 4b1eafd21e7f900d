// Package masm is a Go reproduction of "MaSM: Efficient Online Updates in
// Data Warehouses" (Athanassoulis, Chen, Ailamaki, Gibbons, Stoica —
// SIGMOD 2011): a data-warehouse storage engine that caches incoming
// updates on an SSD and merges them into table range scans on the fly, so
// analysis queries always see fresh data at almost no overhead, while
// sustaining orders of magnitude more updates per second than in-place
// application.
//
// The DB type is the high-level facade: a clustered row-store table on a
// simulated disk, a MaSM-αM update cache on a simulated SSD, a redo log,
// and ACID transaction support. All I/O happens on a deterministic virtual
// timeline; Elapsed reports the simulated time consumed, which is how the
// paper's experiments are reproduced machine-independently.
//
//	db, _ := masm.Open(masm.DefaultConfig(), keys, bodies)
//	db.Insert(3, []byte("fresh row"))
//	db.Scan(0, 100, func(key uint64, body []byte) bool { ... return true })
//	db.Migrate() // fold cached updates back into the main data
//
// # Catalog and multi-tenancy
//
// DB is the single-table special case of the Engine catalog (the paper's
// §5: one SSD caching updates for many objects). An Engine serves any
// number of named tables, each a full MaSM instance, all sharing one SSD
// update-cache volume (partitioned by a byte-budget allocator), one redo
// log (records carry the owning table's id), one commit-timestamp oracle,
// and one migration scheduler that arbitrates across tables by cache-fill
// pressure:
//
//	eng, _ := masm.NewEngine(masm.DefaultConfig())
//	orders, _ := eng.CreateTable("orders", masm.TableOptions{Keys: ..., Bodies: ...})
//	items, _ := eng.CreateTable("lineitem", masm.TableOptions{Keys: ..., Bodies: ...})
//	orders.Insert(...); items.Scan(...)
//	tx, _ := eng.BeginTx(masm.TxSnapshot) // atomic commit spanning tables
//
// Open and OpenDir construct a one-table engine and return its "default"
// table wrapped as a DB; every timing and every byte they produce is
// identical to the historical single-table implementation.
//
// # Concurrency and snapshot isolation
//
// DB is safe for concurrent use by multiple goroutines, and reads do not
// block writes: the facade holds no lock while a scan iterates. Every
// Scan (and every Snapshot) captures a consistent logical view of the
// database — a fresh read timestamp plus a refcount-pinned set of the
// SSD-resident sorted runs — and merges rows outside any lock. The
// semantics are snapshot isolation in the paper's timestamp sense (§3.2):
//
//   - A scan observes exactly the updates whose Insert/Delete/Modify (or
//     transaction Commit) call returned before the scan started, and none
//     that were applied after it started. Updates concurrent with the
//     scan's start may or may not be observed, but each update is atomic:
//     a row is never seen half-modified, and keys arrive in strictly
//     increasing order.
//   - Snapshot pins a view explicitly, so several scans can read the same
//     consistent state while updates continue to stream in; Migrate waits
//     for open scans and snapshots older than its timestamp.
//   - Background migration (StartMigrationScheduler) runs off the update
//     path and observes the same rules.
//   - One table's migration never blocks another table's scans or
//     updates: reader registration, run pinning and the migration wait
//     are all per table.
//
// Lower-level building blocks live in the internal packages: the device
// and timing model (internal/sim), the table heap (internal/table), the
// materialized sorted runs (internal/runfile), the MaSM algorithms
// (internal/masm), the baselines the paper compares against
// (internal/inplace, internal/iu, internal/lsm), the redo log
// (internal/wal), transactions (internal/txn), and the full benchmark
// harness regenerating every figure (internal/bench).
package masm

import (
	"errors"
	"sync/atomic"

	core "masm/internal/masm"
	"masm/internal/obs"
	"masm/internal/sim"
)

// Config configures a DB (and, as the engine configuration, the shared
// infrastructure of a multi-table Engine).
type Config struct {
	// CacheBytes is the SSD update-cache capacity; the paper recommends
	// 1–10 % of the main data size. For an Engine this is the total shared
	// cache; per-table caps are set in TableOptions.
	CacheBytes int64
	// Alpha in [2/∛M, 2] selects the MaSM variant: 2 = MaSM-2M (minimal
	// SSD writes), 1 = MaSM-M (half the memory, ~1.75 writes/update).
	Alpha float64
	// FineGrainIndex selects the 4 KB run-index granularity for scans
	// (best for small ranges); false selects the coarse 64 KB one.
	FineGrainIndex bool
	// MigrateThreshold is the cache fill fraction above which
	// MigrateIfNeeded acts.
	MigrateThreshold float64
	// DisableRedoLog turns off write-ahead logging (and crash recovery).
	DisableRedoLog bool
}

// DefaultConfig returns a MaSM-M configuration with a 16 MB cache and
// fine-grain index.
func DefaultConfig() Config {
	return Config{
		CacheBytes:       16 << 20,
		Alpha:            1,
		FineGrainIndex:   true,
		MigrateThreshold: 0.9,
	}
}

// Stats is a snapshot of the engine's counters.
type Stats struct {
	Rows        int64
	CachedBytes int64
	// CacheFill is CachedBytes as a fraction of the table's SSD cache
	// capacity (its budget, for a table inside an Engine).
	CacheFill       float64
	Runs            int
	UpdatesAccepted int64
	WritesPerUpdate float64
	Migrations      int64
	// Device-level truth for the paper's design goals. The devices are
	// engine-wide, so these are zero in Table.Stats and filled in
	// DB.Stats/Engine.Stats.
	SSDBytesWritten int64
	SSDRandomWrites int64
	DiskBytesRead   int64
}

// clock is a monotone virtual clock: concurrent operations race to push it
// forward, and it never moves backward. It replaces the old big-lock
// serialization of the facade's single `now` field.
type clock struct{ t atomic.Int64 }

func (c *clock) now() sim.Time { return sim.Time(c.t.Load()) }

// advance raises the clock to at least t.
func (c *clock) advance(t sim.Time) {
	for {
		cur := c.t.Load()
		if int64(t) <= cur || c.t.CompareAndSwap(cur, int64(t)) {
			return
		}
	}
}

// DB is an open MaSM-backed warehouse table: the one table (named
// DefaultTableName) of a one-table Engine, whose reads, updates and
// migrations it inherits from *Table, plus the engine-level operations of
// that engine. All methods are safe for concurrent use; see the package
// comment for the isolation semantics. Transactions begin on the engine:
// db.Engine().BeginTx.
type DB struct{ *Table }

// ErrClosed reports use of a closed DB or Engine.
var ErrClosed = errors.New("masm: database closed")

// ErrActiveQueries is returned by Migrate, ScanAndMigrate and MigrateStep
// while scans, snapshots or transactions older than the migration
// timestamp are still open. It means "retry after they close", not
// failure; MigrateIfNeeded and the MigrationScheduler absorb it.
var ErrActiveQueries = core.ErrActiveQueries

// ErrMigrationInProgress is returned by migration entry points while
// another migration is running. Like ErrActiveQueries it is a transient,
// retry-later condition.
var ErrMigrationInProgress = core.ErrMigrationInProgress

// ErrSnapshotClosed is returned by reads through a Snapshot that has been
// Closed; take a fresh Snapshot to read current data.
var ErrSnapshotClosed = core.ErrSnapshotClosed

// Open bulk-loads a table from records in strictly increasing key order
// and attaches a MaSM update cache to it: a one-table engine whose single
// table owns the whole cache.
func Open(cfg Config, keys []uint64, bodies [][]byte) (*DB, error) {
	eng, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	t, err := eng.CreateTable(DefaultTableName, TableOptions{CacheBytes: cfg.CacheBytes, Keys: keys, Bodies: bodies})
	if err != nil {
		return nil, err
	}
	return &DB{t}, nil
}

// Engine returns the catalog engine beneath this DB; CreateTable on it
// adds further tables sharing the same SSD cache, redo log and timeline.
func (db *DB) Engine() *Engine { return db.eng }

func coreConfig(cfg Config) core.Config {
	ccfg := core.DefaultConfig(roundTo(cfg.CacheBytes, 4<<10))
	ccfg.SSDPage = 4 << 10
	ccfg.Run.IOSize = 64 << 10
	ccfg.Run.IndexGranularity = 4 << 10
	if cfg.FineGrainIndex {
		ccfg.ScanGranularity = 4 << 10
	} else {
		ccfg.ScanGranularity = 64 << 10
	}
	if cfg.Alpha != 0 {
		ccfg.Alpha = cfg.Alpha
	}
	if cfg.MigrateThreshold != 0 {
		ccfg.MigrateThreshold = cfg.MigrateThreshold
	}
	return ccfg
}

// dataBytesFor sizes the main-data volume for a bulk load generously:
// the loaded data plus room for growth. Open and OpenDir share it so the
// sim and file backends always lay out identical geometry.
func dataBytesFor(keys []uint64, bodies [][]byte) int64 {
	return int64(len(keys))*int64(avgBody(bodies)+32)*2 + (64 << 20)
}

func avgBody(bodies [][]byte) int {
	if len(bodies) == 0 {
		return 100
	}
	var n int
	for _, b := range bodies {
		n += len(b)
	}
	return n/len(bodies) + 1
}

func roundTo(n, unit int64) int64 {
	if n < unit {
		return unit
	}
	return n / unit * unit
}

// Sync forces the redo log to stable storage; see Engine.Sync.
func (db *DB) Sync() error { return db.eng.Sync() }

// Elapsed returns the simulated time consumed by all operations so far.
// With concurrent callers it reports the furthest point any operation has
// reached on the shared virtual timeline.
func (db *DB) Elapsed() sim.Duration { return db.eng.Elapsed() }

// Stats returns a snapshot of engine counters. The counters themselves
// live in the engine's metric registry (see Metrics); Stats is a derived
// view kept for API stability.
func (db *DB) Stats() Stats {
	st := db.Table.Stats()
	ssd := db.eng.ssd.Stats()
	hdd := db.eng.hdd.Stats()
	st.SSDBytesWritten = ssd.BytesWritten
	st.SSDRandomWrites = ssd.RandomWrites
	st.DiskBytesRead = hdd.BytesRead
	return st
}

// Metrics returns a point-in-time snapshot of every metric the engine
// exposes — write path, SSD cache, migrations, WAL, merge engine, scans.
// See Engine.Metrics.
func (db *DB) Metrics() obs.Snapshot { return db.eng.Metrics() }

// Close marks the database closed and stops the background migration
// scheduler, if one is running. Close is idempotent. In-flight operations
// started before Close may still complete (on a file-backed database they
// may instead fail once the files close underneath them).
//
// For file-backed databases (OpenDir), Close is the clean shutdown: the
// redo log's buffered tail is forced, every file is fsynced, and the
// descriptors are released, so the next OpenDir recovers the complete
// state. For the abrupt variant, see HardStop.
func (db *DB) Close() error { return db.eng.Close() }

// HardStop abandons the database with no clean shutdown whatsoever: no
// log sync, no file sync, no manifest write — the in-process equivalent of
// kill -9. In-flight operations fail as their file descriptors close.
// Updates not yet forced by Sync (or a filled group-commit batch) are
// lost, exactly as a crash would lose them; everything committed is
// recovered by the next OpenDir. On a memory-backed DB it is Close.
//
// It exists for crash-recovery tests and demos; production code wants
// Close.
func (db *DB) HardStop() error { return db.eng.HardStop() }

// Crash simulates a failure: every volatile structure (the in-memory
// update buffer, run metadata, run indexes) is dropped, and a new DB is
// rebuilt from the redo log, the SSD-resident runs, and the main data
// (paper §3.6). The original DB becomes unusable; the caller must ensure
// no operations are in flight (as with a real crash, concurrent work is
// torn off mid-step).
//
// On a file-backed database (OpenDir) the crash is real: the files are
// abandoned without any sync (HardStop) and the returned DB is a fresh
// OpenDir recovery of the same directory.
func (db *DB) Crash() (*DB, error) {
	e2, err := db.eng.Crash()
	if err != nil {
		return nil, err
	}
	t, err := e2.OpenTable(DefaultTableName)
	if err != nil {
		return nil, err
	}
	return &DB{t}, nil
}
