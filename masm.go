// Package masm is a Go reproduction of "MaSM: Efficient Online Updates in
// Data Warehouses" (Athanassoulis, Chen, Ailamaki, Gibbons, Stoica —
// SIGMOD 2011): a data-warehouse storage engine that caches incoming
// updates on an SSD and merges them into table range scans on the fly, so
// analysis queries always see fresh data at almost no overhead, while
// sustaining orders of magnitude more updates per second than in-place
// application.
//
// An Engine is a catalog of named tables (the paper's §5: one SSD caching
// updates for many objects). Each table is a full MaSM instance — a
// clustered row store, an in-memory update buffer and materialized sorted
// runs — and every table draws on shared infrastructure: one SSD
// update-cache volume (partitioned by a byte-budget allocator), one redo
// log (records carry the owning table's id), one commit-timestamp oracle,
// and one migration scheduler that arbitrates across tables by cache-fill
// pressure. There are two constructors, one per backend, and one handle:
//
//   - NewEngine keeps everything on simulated devices. All I/O happens on
//     a deterministic virtual timeline; Elapsed reports the simulated time
//     consumed, which is how the paper's experiments are reproduced
//     machine-independently.
//
//   - OpenEngineDir lays the same catalog out over real files in a
//     directory and recovers it on reopen (dir.go).
//
//   - A *Table, from CreateTable or OpenTable, reads, updates and migrates
//     one table: Insert, Delete and Modify; Scan, Get and Query; Migrate
//     (or MigrateStep, one incremental portion). Transactions span tables
//     and begin on the engine; the loser of a write-write race gets
//     ErrWriteConflict from Commit.
//
//     eng, _ := masm.NewEngine(masm.DefaultConfig())
//     orders, _ := eng.CreateTable("orders", masm.TableOptions{Keys: keys, Bodies: bodies})
//     orders.Insert(3, []byte("fresh row"))
//     orders.Scan(0, 100, func(key uint64, body []byte) bool { ... return true })
//     orders.Migrate() // fold cached updates back into the main data
//     tx, _ := eng.BeginTx(masm.TxSnapshot) // atomic commit spanning tables
//
// # Concurrency and snapshot isolation
//
// Engines and tables are safe for concurrent use by multiple goroutines,
// and reads do not block writes: no lock is held while a scan iterates.
// Every Scan (and every Snapshot) captures a consistent logical view of the
// table — a fresh read timestamp plus a refcount-pinned set of the
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
//     for open scans, lookups, snapshots and transactions older than its
//     timestamp (ErrActiveQueries).
//   - Background migration (Engine.StartMigrationScheduler) runs off the
//     update path and observes the same rules.
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
	"fmt"
	"sync/atomic"

	core "masm/internal/masm"
	"masm/internal/sim"
	"masm/internal/txn"
)

// Config configures an Engine: the infrastructure its tables share and the
// MaSM variant each of them runs.
type Config struct {
	// CacheBytes is the SSD update-cache capacity; the paper recommends
	// 1–10 % of the main data size. For an Engine this is the total shared
	// cache; per-table caps are set in TableOptions.
	CacheBytes int64
	// Alpha in [2/∛M, 2] selects the MaSM variant: 2 = MaSM-2M (minimal
	// SSD writes), 1 = MaSM-M (half the memory, ~1.75 writes/update).
	Alpha float64
	// MigrateThreshold is the cache fill fraction — of a table's budget or
	// of the shared cache — at which a table is due for migration (paper
	// §3.2: "when updates reach e.g. 90% of the SSD size"). Zero means
	// DefaultConfig's 0.9; a value outside (0, 1] is refused.
	MigrateThreshold float64
	// DisableRedoLog turns off write-ahead logging (and crash recovery).
	DisableRedoLog bool
}

// DefaultConfig returns a MaSM-M configuration with a 16 MB cache.
func DefaultConfig() Config {
	return Config{
		CacheBytes:       16 << 20,
		Alpha:            1,
		MigrateThreshold: 0.9,
	}
}

// Stats is a snapshot of one table's counters; EngineStats adds the
// device-level counters of the hardware the tables share.
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
}

// clock is an engine's monotone virtual clock: concurrent operations race
// to push it forward, and it never moves backward.
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

// ErrClosed reports use of a closed Engine, or of a table of one.
var ErrClosed = errors.New("masm: database closed")

// ErrActiveQueries is returned by Migrate and MigrateStep while scans,
// snapshots or transactions older than the migration timestamp are still
// open. It means "retry after they close", not failure;
// MigrateIfPressured and the MigrationScheduler absorb it.
var ErrActiveQueries = core.ErrActiveQueries

// ErrMigrationInProgress is returned by migration entry points while
// another migration is running. Like ErrActiveQueries it is a transient,
// retry-later condition.
var ErrMigrationInProgress = core.ErrMigrationInProgress

// ErrSnapshotClosed is returned by reads through a Snapshot that has been
// Closed; take a fresh Snapshot to read current data.
var ErrSnapshotClosed = core.ErrSnapshotClosed

// ErrWriteConflict is returned by EngineTx.Commit when a table's write set
// conflicts with a commit made after the transaction first touched that
// table (first committer wins). Nothing of the transaction is published;
// retry it from BeginTx.
var ErrWriteConflict = txn.ErrWriteConflict

func coreConfig(cfg Config) core.Config {
	ccfg := core.DefaultConfig(roundTo(cfg.CacheBytes, 4<<10))
	ccfg.SSDPage = 4 << 10
	ccfg.Run.IOSize = 64 << 10
	ccfg.Run.IndexGranularity = 4 << 10
	ccfg.ScanGranularity = 4 << 10
	if cfg.Alpha != 0 {
		ccfg.Alpha = cfg.Alpha
	}
	return ccfg
}

// resolveThreshold gives cfg's MigrateThreshold its default and refuses
// it outside (0, 1]. Both constructors call it, so the engine compares
// fills with one resolved value.
func resolveThreshold(cfg *Config) error {
	if cfg.MigrateThreshold == 0 {
		cfg.MigrateThreshold = DefaultConfig().MigrateThreshold
	}
	if cfg.MigrateThreshold <= 0 || cfg.MigrateThreshold > 1 {
		return fmt.Errorf("masm: migrate threshold %v outside (0,1]", cfg.MigrateThreshold)
	}
	return nil
}

// dataBytesFor sizes a table's main-data region for a bulk load
// generously: the loaded data plus room for growth. Both backends use it,
// so a table has the same geometry on either.
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
