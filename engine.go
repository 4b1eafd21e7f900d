package masm

// Multi-table catalog. The paper's §5 extends MaSM from one table to many
// objects — tables, secondary indexes, materialized views — caching their
// updates on one shared SSD. Engine is that catalog: every table it serves
// is an independent MaSM-αM instance (its own in-memory update buffer, its
// own materialized sorted runs, its own region of the main-data heap)
// drawing from shared infrastructure —
//
//   - one SSD update-cache volume, partitioned by a byte-budget run
//     allocator (a table may be capped below the full cache, and the sum
//     of caps may oversubscribe it: idle tenants lend space to busy ones);
//   - one redo log whose records carry the owning table's id;
//   - one timestamp oracle, so commits across tables share a timeline and
//     transactions publish atomically whatever tables they span;
//   - one migration scheduler arbitrating across tables by cache-fill
//     pressure.

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	core "masm/internal/masm"
	"masm/internal/obs"
	"masm/internal/sim"
	"masm/internal/storage"
	"masm/internal/table"
	"masm/internal/txn"
	"masm/internal/update"
	"masm/internal/wal"
)

// ErrNoTable reports a lookup of a table the catalog does not hold.
var ErrNoTable = errors.New("masm: no such table")

// ErrTableExists reports CreateTable with a name already in the catalog.
var ErrTableExists = errors.New("masm: table already exists")

// ErrTableBusy reports DropTable while the table still has open scans,
// snapshots, transactions or an in-flight migration.
var ErrTableBusy = errors.New("masm: table busy (open readers or migration)")

// ErrTableDropped reports use of a Table handle after DropTable.
var ErrTableDropped = errors.New("masm: table dropped")

// TableOptions configures CreateTable.
type TableOptions struct {
	// CacheBytes caps the table's share of the engine's SSD update cache.
	// Zero means the whole cache: caps are upper bounds, not reservations,
	// and may oversubscribe the engine (the shared allocator and the
	// migration scheduler arbitrate the physical space).
	CacheBytes int64
	// Keys and Bodies bulk-load the table in strictly increasing key
	// order.
	Keys   []uint64
	Bodies [][]byte
}

// Engine is a catalog of MaSM tables sharing one SSD update cache, one
// redo log and one commit timeline. All methods are safe for concurrent
// use.
type Engine struct {
	cfg    Config
	hdd    *sim.Device
	ssd    *sim.Device
	arena  *storage.Arena // in-memory main-data layout (nil when file-backed)
	ssdVol *storage.Volume
	shared *core.SharedAlloc
	oracle *core.Oracle
	logVol *storage.Volume
	log    *wal.Log
	// fs is non-nil for file-backed engines (OpenEngineDir).
	fs *dirState

	// reg is the engine's metric registry; every layer's counters, gauges
	// and histograms live here, labeled per table where appropriate. tracer
	// numbers lifecycle events (flush, merge, migration) and hands them to
	// the sink SetTraceSink installs. msrv is the optional metrics/pprof
	// HTTP endpoint (EngineDirOptions.MetricsAddr).
	reg    *obs.Registry
	tracer *obs.Tracer
	msrv   *obs.Server

	clock clock
	// mu guards the catalog state (tables, closed, sched). Table
	// operations hold the read side only long enough to check liveness;
	// CreateTable/DropTable/Close take the write side.
	mu     sync.RWMutex
	tables map[string]*Table
	byID   map[uint32]*Table
	nextID uint32
	closed bool
	sched  *MigrationScheduler
}

// NewEngine creates an in-memory (simulated-device) engine with a shared
// SSD update cache of cfg.CacheBytes. Tables are added with CreateTable.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.CacheBytes <= 0 {
		return nil, fmt.Errorf("masm: non-positive cache size %d", cfg.CacheBytes)
	}
	if err := resolveThreshold(&cfg); err != nil {
		return nil, err
	}
	hdd := sim.NewDevice(sim.Barracuda7200())
	ssd := sim.NewDevice(sim.IntelX25E())
	ssdVol, err := storage.NewVolume(ssd, 0, cfg.CacheBytes*2)
	if err != nil {
		return nil, err
	}
	e := newEngine(cfg, hdd, ssd, ssdVol)
	e.arena = storage.NewArena(hdd)
	return e, nil
}

// newEngine builds the shell of one engine generation over its devices and
// SSD update-cache volume: a fresh oracle, catalog maps, metric registry and
// tracer, and the shared run allocator over ssdVol with its pool metrics.
// The caller adds the main-data layout and the redo log.
func newEngine(cfg Config, hdd, ssd *sim.Device, ssdVol *storage.Volume) *Engine {
	e := &Engine{
		cfg:    cfg,
		hdd:    hdd,
		ssd:    ssd,
		ssdVol: ssdVol,
		shared: core.NewSharedAlloc(ssdVol.Size()),
		oracle: &core.Oracle{},
		tables: make(map[string]*Table),
		byID:   make(map[uint32]*Table),
		reg:    obs.NewRegistry(),
		tracer: obs.NewTracer(),
	}
	e.shared.SetMetrics(core.NewPoolMetrics(e.reg))
	return e
}

// openLog starts the engine's redo log on e.logVol, with its series in the
// engine registry and, when file-backed, the directory's durability hooks.
func (e *Engine) openLog() {
	e.log = wal.Open(e.logVol)
	if e.fs != nil {
		e.log.SetHooks(e.fs.hooks())
	}
	e.log.SetMetrics(wal.Metrics{
		Appends:   e.reg.Counter("masm_wal_appends"),
		Syncs:     e.reg.Counter("masm_wal_syncs"),
		SyncNanos: e.reg.Histogram("masm_wal_sync_nanos"),
	})
}

// storeMetricsFor registers (or re-attaches to) a table's series in the
// engine registry, labeled with the table name, and wires the engine tracer.
func (e *Engine) storeMetricsFor(name string) *core.StoreMetrics {
	sm := core.NewStoreMetrics(e.reg, obs.L("table", name))
	sm.Tracer = e.tracer
	return sm
}

// newStore builds t's update-cache store on the shared SSD volume: its
// logical capacity is the table's budget, its partition of the shared
// allocator is capped at twice that (the transient space 2-pass merges
// write into before their inputs are released), and its series go to the
// engine registry. CreateTable and recovery both build stores here.
func (e *Engine) newStore(t *Table, logger core.RedoLogger) (*core.Store, error) {
	ccfg := coreConfig(e.cfg)
	ccfg.SSDCapacity = roundTo(t.cacheBudget, 4<<10)
	return core.NewStore(ccfg, t.tbl, e.ssdVol, e.oracle, logger,
		e.shared.Partition(t.id, t.cacheBudget*2), e.storeMetricsFor(t.name))
}

// ensureLogLocked lazily allocates the redo-log volume. It runs after the
// first table's data volume is carved, so the simulated disk holds the
// first table's data, then the log, then later tables' data. Caller holds
// e.mu.
func (e *Engine) ensureLogLocked() error {
	if e.log != nil || e.cfg.DisableRedoLog || e.fs != nil {
		return nil
	}
	var err error
	e.logVol, err = e.arena.Alloc(logFileBytes)
	if err != nil {
		return err
	}
	e.openLog()
	return nil
}

// Table is one named table of an Engine's catalog: a full MaSM instance
// whose update cache lives on the engine's shared SSD. All methods are
// safe for concurrent use; see the package comment for the isolation
// semantics.
type Table struct {
	eng  *Engine
	name string
	id   uint32
	// cacheBudget is the table's logical SSD cap (TableOptions.CacheBytes
	// resolved).
	cacheBudget int64
	// dataOff/dataBytes locate the table's heap region (file-backed
	// engines; in-memory regions are arena volumes).
	dataOff, dataBytes int64
	tbl                *table.Table
	store              *core.Store
	txns               *txn.Manager
	dropped            bool // guarded by eng.mu
}

// ID returns the table's catalog id (its tag in the shared redo log).
func (t *Table) ID() uint32 { return t.id }

// CreateTable adds a table to the catalog, bulk-loaded from opts.Keys and
// opts.Bodies (strictly increasing keys). The table's update cache is
// capped at opts.CacheBytes of the shared SSD (zero: the whole cache).
func (e *Engine) CreateTable(name string, opts TableOptions) (*Table, error) {
	if name == "" {
		return nil, errors.New("masm: empty table name")
	}
	if len(opts.Keys) != len(opts.Bodies) {
		return nil, fmt.Errorf("masm: %d keys but %d bodies", len(opts.Keys), len(opts.Bodies))
	}
	budget := opts.CacheBytes
	if budget <= 0 {
		budget = e.cfg.CacheBytes
	}
	if budget > e.cfg.CacheBytes {
		return nil, fmt.Errorf("masm: table cache cap %d exceeds the engine's %d-byte cache", budget, e.cfg.CacheBytes)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrClosed
	}
	if _, ok := e.tables[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrTableExists, name)
	}
	id := e.nextID
	t := &Table{eng: e, name: name, id: id, cacheBudget: budget}

	var dataVol *storage.Volume
	var err error
	need := dataBytesFor(opts.Keys, opts.Bodies)
	tcfg := table.DefaultConfig()
	created := false
	if e.fs != nil {
		if dataVol, t.dataOff, err = e.fs.allocData(need); err != nil {
			return nil, err
		}
		t.dataBytes = need
		// A failed creation must hand its heap region back, or every bad
		// CreateTable call permanently consumes a slice of the
		// fixed-capacity data file (the bump cursor is persisted by the
		// next manifest write).
		defer func() {
			if !created {
				e.fs.releaseData(t.dataOff, need)
			}
		}()
		tcfg = e.fs.tableConfig()
	} else {
		if dataVol, err = e.arena.Alloc(need); err != nil {
			return nil, err
		}
	}
	if t.tbl, err = table.Load(dataVol, tcfg, opts.Keys, opts.Bodies); err != nil {
		return nil, err
	}
	if err := e.ensureLogLocked(); err != nil {
		return nil, err
	}
	if e.fs != nil {
		// The loaded pages and the manifest describing them are the
		// recovery baseline: make both durable before accepting updates.
		if err := e.fs.data.Sync(); err != nil {
			return nil, err
		}
	}
	var logger core.RedoLogger
	if e.log != nil {
		logger = e.log.ForTable(id)
	}
	if t.store, err = e.newStore(t, logger); err != nil {
		e.shared.Drop(id)
		e.reg.Unregister(obs.L("table", name))
		return nil, err
	}
	t.txns = txn.NewManager(t.store)
	e.nextID++
	e.tables[name] = t
	e.byID[id] = t
	if e.fs != nil {
		if err := e.fs.addTable(t, e.nextID); err != nil {
			delete(e.tables, name)
			delete(e.byID, id)
			e.shared.Drop(id)
			e.reg.Unregister(obs.L("table", name))
			e.nextID--
			return nil, err
		}
	}
	created = true
	return t, nil
}

// OpenTable returns the named table's handle.
func (e *Engine) OpenTable(name string) (*Table, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return nil, ErrClosed
	}
	t, ok := e.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoTable, name)
	}
	return t, nil
}

// Tables returns the catalog's table names, sorted.
func (e *Engine) Tables() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	names := make([]string, 0, len(e.tables))
	for n := range e.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// DropTable removes a table from the catalog, releasing its SSD cache
// space back to the shared pool. It fails with ErrTableBusy while the
// table has open scans, snapshots, transactions or a running migration.
// The heap region is not reused (the prototype's main-data layout is a
// bump allocator); on a file-backed engine the drop is made durable by a
// manifest rewrite, after which recovery ignores the table's log records.
func (e *Engine) DropTable(name string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	t, ok := e.tables[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoTable, name)
	}
	if err := t.store.ReleaseAllRuns(); err != nil {
		return fmt.Errorf("%w: %v", ErrTableBusy, err)
	}
	delete(e.tables, name)
	delete(e.byID, t.id)
	e.shared.Drop(t.id)
	// Unregister the table's metric series so tenant churn cannot leak
	// registry entries; a later table with the same name starts fresh.
	e.reg.Unregister(obs.L("table", name))
	t.dropped = true
	if e.fs != nil {
		return e.fs.removeTable(t)
	}
	return nil
}

// liveLocked checks, under the engine's read lock, that the engine is open
// and the table not dropped; it is the prologue of every table operation.
func (t *Table) liveLocked() error {
	if t.eng.closed {
		return ErrClosed
	}
	if t.dropped {
		return ErrTableDropped
	}
	return nil
}

// insertRecord and modifyRecord build the well-formed updates behind every
// Insert and Modify entry point (Table and EngineTx), owning a copy of the
// caller's bytes.
func insertRecord(key uint64, body []byte) update.Record {
	return update.Record{Key: key, Op: update.Insert, Payload: append([]byte(nil), body...)}
}

func modifyRecord(key uint64, off int, val []byte) (update.Record, error) {
	if off < 0 || off > 0xffff {
		return update.Record{}, fmt.Errorf("masm: modify offset %d out of range", off)
	}
	return update.Record{Key: key, Op: update.Modify,
		Payload: update.EncodeFields([]update.Field{{Off: uint16(off), Value: append([]byte(nil), val...)}})}, nil
}

// Insert caches an insertion of (key, body): a well-formed update, applied
// to queries immediately and to the main data at the next migration.
// While a migration scheduler runs, a write into a cache at AdmitFill
// first waits for migration, and returns ErrBackpressure, publishing
// nothing, if migration does not catch up within the admission wait.
func (t *Table) Insert(key uint64, body []byte) error {
	return t.apply(insertRecord(key, body))
}

// Delete caches a deletion of key from this table. It is admitted as
// Insert is, and may return ErrBackpressure likewise.
func (t *Table) Delete(key uint64) error {
	return t.apply(update.Record{Key: key, Op: update.Delete})
}

// Modify caches an in-record field modification: len(val) bytes at byte
// offset off of the record body. It is admitted as Insert is, and may
// return ErrBackpressure likewise.
func (t *Table) Modify(key uint64, off int, val []byte) error {
	rec, err := modifyRecord(key, off, val)
	if err != nil {
		return err
	}
	return t.apply(rec)
}

func (t *Table) apply(rec update.Record) error {
	e := t.eng
	due, err := e.admit(nil, t)
	if err != nil {
		return err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if err := t.liveLocked(); err != nil {
		return err
	}
	end, err := t.store.ApplyAuto(e.clock.now(), rec)
	if err != nil {
		return err
	}
	e.clock.advance(end)
	if due != nil {
		due.Kick()
	}
	return nil
}

// Snapshot captures a consistent logical view of the table: every scan
// opened from it sees exactly the updates applied before the snapshot was
// taken, regardless of concurrent writers. Close must be called when done;
// an open snapshot blocks migration.
func (t *Table) Snapshot() (*Snapshot, error) {
	e := t.eng
	e.mu.RLock()
	defer e.mu.RUnlock()
	if err := t.liveLocked(); err != nil {
		return nil, err
	}
	snap := &Snapshot{t: t, snap: t.store.Snapshot()}
	// Safety net mirroring BeginTx's: a Snapshot abandoned without Close
	// would block migration for the engine's lifetime. Close is idempotent,
	// so the cleanup is a no-op for properly closed snapshots.
	runtime.AddCleanup(snap, func(sn *core.Snapshot) { sn.Close() }, snap.snap)
	return snap, nil
}

// Scan calls fn for every live record with key in [begin, end], in key
// order, reflecting every update committed before the scan started. fn
// returning false stops the scan early. The scanned bytes come from large
// sequential disk reads merged with the SSD-cached updates — the paper's
// replacement for Table_range_scan. Scan holds no lock while iterating:
// concurrent Insert/Delete/Modify proceed unblocked and are invisible to
// this scan (snapshot isolation). body is valid only until fn returns: it
// aliases the scan's read buffer, a cached update's payload or, for a
// modified row, the scan's scratch body, so a caller that keeps it must
// copy it.
func (t *Table) Scan(begin, end uint64, fn func(key uint64, body []byte) bool) error {
	e := t.eng
	e.mu.RLock()
	if err := t.liveLocked(); err != nil {
		e.mu.RUnlock()
		return err
	}
	// A single scan needs no Snapshot wrapper: NewQuery issues the read
	// timestamp and registers the query atomically under the store latch.
	q, err := t.store.NewQuery(e.clock.now(), begin, end, nil)
	e.mu.RUnlock()
	if err != nil {
		return err
	}
	return e.drainQuery(q, fn)
}

// drainQuery hands a query's rows to fn until the end or an early stop,
// then advances the virtual clock and closes the query — the shared tail
// of every scan entry point.
func (e *Engine) drainQuery(q *core.Query, fn func(key uint64, body []byte) bool) error {
	defer func() {
		e.clock.advance(q.Time())
		q.Close()
	}()
	return q.Each(fn)
}

// Get returns the freshest version of one record, or ok=false if it does
// not exist: what Scan(key, key) would deliver, by the store's point
// lookup (memtable probe, the runs whose key filter admits the key, one
// page) instead of a merge over every run.
func (t *Table) Get(key uint64) ([]byte, bool, error) {
	e := t.eng
	// Held across the lookup, as apply holds it across a write: the lookup
	// registers as a reader inside the store, and a DropTable must not slip
	// between the liveness check and that registration.
	e.mu.RLock()
	defer e.mu.RUnlock()
	if err := t.liveLocked(); err != nil {
		return nil, false, err
	}
	row, found, end, err := t.store.Get(e.clock.now(), key)
	e.clock.advance(end)
	return row.Body, found, err
}

// Flush forces the table's in-memory update buffer into a materialized
// sorted run on the shared SSD.
func (t *Table) Flush() error {
	e := t.eng
	e.mu.RLock()
	defer e.mu.RUnlock()
	if err := t.liveLocked(); err != nil {
		return err
	}
	end, err := t.store.Flush(e.clock.now())
	if err != nil {
		return err
	}
	e.clock.advance(end)
	return nil
}

// Migrate folds every cached update of this table back into its main data,
// in place, and deletes the materialized runs; other tables' caches and
// scans are untouched. It runs concurrently with incoming updates, but
// waits for scans and snapshots older than its timestamp (returning
// ErrActiveQueries while they are open).
func (t *Table) Migrate() error {
	_, err := t.migrate(0)
	return err
}

// MigrateStep performs one step of incremental migration, folding the
// cached updates for the next span of portionPages table pages back into
// the main data (paper §3.5: distribute the migration cost across many
// small operations). It reports whether this step completed a full sweep
// of the table, after which fully-applied runs are deleted. portionPages
// must be positive.
func (t *Table) MigrateStep(portionPages int) (sweepDone bool, err error) {
	if portionPages < 1 {
		return false, errors.New("masm: non-positive portion size")
	}
	return t.migrate(portionPages)
}

// migrate runs one migration of the whole table (pages 0) or of the next
// pages pages of its sweep, and reports whether it completed a sweep.
func (t *Table) migrate(pages int) (sweepDone bool, err error) {
	e := t.eng
	e.mu.RLock()
	if err := t.liveLocked(); err != nil {
		e.mu.RUnlock()
		return false, err
	}
	mig, err := t.store.BeginMigration(e.clock.now(), pages)
	e.mu.RUnlock()
	if err != nil {
		return false, err
	}
	end, rep, err := mig.Run()
	if err != nil {
		return false, err
	}
	e.clock.advance(end)
	return rep.SweepDone, nil
}

// CacheFill returns the table's update-cache occupancy as a fraction of
// its budget.
func (t *Table) CacheFill() float64 { return t.store.Fill() }

// MigrateIfPressured performs one round of cache-pressure arbitration
// synchronously: if any table's occupancy is at Config.MigrateThreshold of
// its budget, the most-pressured table migrates; otherwise, if the *total*
// cached bytes reach the threshold of the engine's cache while no
// individual table has (many moderately busy tenants sharing the pool),
// the single largest consumer migrates to relieve it. It reports which table migrated, if any.
// Transient blockers (open readers, an in-flight migration) are absorbed
// as ("", false, nil); the MigrationScheduler calls this in a loop, and
// synchronous multi-tenant drivers can too.
func (e *Engine) MigrateIfPressured() (tableName string, ran bool, err error) {
	name, ran, err := e.migrateIfPressured(nil)
	if err != nil {
		return "", false, err
	}
	return name, ran, nil
}

// migrateIfPressured is MigrateIfPressured with two scheduler-facing
// extensions: tables named in skip are excluded from arbitration (the
// scheduler quarantines a table whose migration just failed so the rest
// of the round proceeds), and on error the failing table's name is
// returned alongside it so the caller knows what to quarantine.
func (e *Engine) migrateIfPressured(skip map[string]bool) (tableName string, ran bool, err error) {
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		return "", false, ErrClosed
	}
	tables := make([]*Table, 0, len(e.tables))
	for _, t := range e.tables {
		tables = append(tables, t)
	}
	e.mu.RUnlock()
	if len(tables) == 0 {
		return "", false, nil
	}
	var target *Table
	var targetFill float64
	var total int64
	var biggest *Table
	var biggestCached int64
	for _, t := range tables {
		cached := t.store.CachedBytes()
		total += cached
		if skip[t.name] {
			continue
		}
		if cached > biggestCached || (cached == biggestCached && (biggest == nil || t.id < biggest.id)) {
			biggest, biggestCached = t, cached
		}
		fill := t.store.Fill()
		if fill < e.cfg.MigrateThreshold {
			continue
		}
		if target == nil || fill > targetFill || (fill == targetFill && t.id < target.id) {
			target, targetFill = t, fill
		}
	}
	if target == nil {
		if float64(total) < e.cfg.MigrateThreshold*float64(e.cfg.CacheBytes) || biggestCached == 0 {
			return "", false, nil
		}
		target = biggest
	}
	if err := target.Migrate(); err != nil {
		if errors.Is(err, ErrActiveQueries) || errors.Is(err, ErrMigrationInProgress) || errors.Is(err, ErrTableDropped) {
			return "", false, nil // transient; retry on the next round
		}
		return target.name, false, err
	}
	return target.name, true, nil
}

// Stats returns this table's counters. The device-level counters are
// engine-wide: see Engine.Stats.
func (t *Table) Stats() Stats {
	st := t.store.Stats()
	return Stats{
		Rows:            t.tbl.Rows(),
		CachedBytes:     t.store.CachedBytes(),
		CacheFill:       t.store.Fill(),
		Runs:            t.store.Runs(),
		UpdatesAccepted: st.UpdatesAccepted,
		WritesPerUpdate: st.WritesPerUpdate(),
		Migrations:      st.Migrations,
	}
}

// EngineStats aggregates the catalog: total cache pressure, the shared
// devices' counters, and a per-table breakdown.
type EngineStats struct {
	// CachedBytes is the update bytes held across every table (runs plus
	// in-memory buffers); CacheFill is that as a fraction of the engine's
	// logical cache capacity.
	CachedBytes int64
	CacheFill   float64
	Tables      map[string]Stats
	// Device-level truth for the shared hardware.
	SSDBytesWritten int64
	SSDRandomWrites int64
	DiskBytesRead   int64
}

// cacheFill returns the catalog's total cached update bytes as a fraction
// of the engine's logical cache capacity — the shared-pool pressure signal
// MigrateIfPressured arbitrates on, computed without Stats' per-table map
// since admission consults it on every write.
func (e *Engine) cacheFill() float64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.cfg.CacheBytes <= 0 {
		return 0
	}
	var total int64
	for _, t := range e.tables {
		total += t.store.CachedBytes()
	}
	return float64(total) / float64(e.cfg.CacheBytes)
}

// CacheBytes returns the size of the engine's shared SSD update cache. A
// reopened directory keeps the size it was created with, whatever
// Config.CacheBytes the reopen asked for.
func (e *Engine) CacheBytes() int64 { return e.cfg.CacheBytes }

// Stats returns a snapshot of the engine's counters with the per-table
// breakdown.
func (e *Engine) Stats() EngineStats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	es := EngineStats{Tables: make(map[string]Stats, len(e.tables))}
	for name, t := range e.tables {
		ts := t.Stats()
		es.Tables[name] = ts
		es.CachedBytes += ts.CachedBytes
	}
	es.CacheFill = float64(es.CachedBytes) / float64(e.cfg.CacheBytes)
	ssd := e.ssd.Stats()
	hdd := e.hdd.Stats()
	es.SSDBytesWritten = ssd.BytesWritten
	es.SSDRandomWrites = ssd.RandomWrites
	es.DiskBytesRead = hdd.BytesRead
	return es
}

// CheckInvariants verifies the engine's cross-layer accounting: every
// table's store passes its own probe (run/extent/pin bookkeeping, see
// core Store.CheckInvariants), the shared SSD allocator's per-table
// ledger agrees byte for byte with what each store actually holds, table
// ids sit below the next-id watermark, and — on a file-backed engine —
// the MANIFEST on disk parses, matches the live catalog and covers every
// table's heap region. It is the model-checking probe the deterministic
// chaos harness runs between operations; call it at a quiescent point
// (no concurrent migration checkpoint mid-write).
func (e *Engine) CheckInvariants() error {
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		return ErrClosed
	}
	tables := make([]*Table, 0, len(e.tables))
	for _, t := range e.tables {
		tables = append(tables, t)
	}
	fs := e.fs
	nextID := e.nextID
	e.mu.RUnlock()
	sort.Slice(tables, func(i, j int) bool { return tables[i].id < tables[j].id })
	var total int64
	for _, t := range tables {
		if t.id >= nextID {
			return fmt.Errorf("masm: table %q id %d at or above the next-id watermark %d", t.name, t.id, nextID)
		}
		ext, err := t.store.CheckInvariants()
		if err != nil {
			return err
		}
		if used := e.shared.Used(t.id); used != ext {
			return fmt.Errorf("masm: table %q (id %d): shared allocator ledger says %d bytes, store holds %d",
				t.name, t.id, used, ext)
		}
		total += ext
	}
	if total > e.ssdVol.Size() {
		return fmt.Errorf("masm: tables hold %d extent bytes on a %d-byte shared volume", total, e.ssdVol.Size())
	}
	if fs != nil {
		return fs.checkManifest(tables, nextID)
	}
	return nil
}

// Registry returns the engine's metric registry: callers may register
// their own series alongside the engine's, or resolve handles to read
// individual metrics without snapshotting.
func (e *Engine) Registry() *obs.Registry { return e.reg }

// Metrics returns a point-in-time snapshot of every metric the engine and
// its tables expose. Encode it with obs.WritePrometheus, marshal it as
// JSON, or query it with its lookup helpers.
func (e *Engine) Metrics() obs.Snapshot { return e.reg.Snapshot() }

// SetTraceSink installs a live sink receiving every lifecycle event
// (flush, merge, migration) as it is emitted. Pass nil to detach.
func (e *Engine) SetTraceSink(s obs.Sink) { e.tracer.SetSink(s) }

// CheckMetrics cross-checks the metric plane against the engine's live
// state: every table's gauges must reconcile exactly with its store
// (run bytes/count, memtable fill, reader registrations), and the shared
// pool's gauges with the allocator ledger. The chaos harness runs it
// alongside CheckInvariants so instrumentation is model-checked.
func (e *Engine) CheckMetrics() error {
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		return ErrClosed
	}
	tables := make([]*Table, 0, len(e.tables))
	for _, t := range e.tables {
		tables = append(tables, t)
	}
	e.mu.RUnlock()
	sort.Slice(tables, func(i, j int) bool { return tables[i].id < tables[j].id })
	for _, t := range tables {
		if err := t.store.CheckMetrics(); err != nil {
			return fmt.Errorf("masm: table %q: %w", t.name, err)
		}
	}
	return e.shared.CheckMetrics()
}

// Sync forces the shared redo log to stable storage; concurrent Syncs
// share one fsync, which runs outside the log latch. Updates are
// group-committed: a filled 4 KiB batch is written, so it survives Crash,
// HardStop and a killed process, but it is not forced, and a power cut can
// lose up to 512 KiB of log written since the last force (the log forces
// itself before it would leave more unforced). An update is guaranteed to
// survive a power cut only after a Sync.
func (e *Engine) Sync() error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return ErrClosed
	}
	if e.log == nil {
		return nil
	}
	end, err := e.log.Sync(e.clock.now())
	if err != nil {
		return err
	}
	e.clock.advance(end)
	return nil
}

// Elapsed returns the simulated time consumed by all operations so far,
// across every table (one shared virtual timeline).
func (e *Engine) Elapsed() sim.Duration { return sim.Duration(e.clock.now()) }

// Close marks the engine closed and stops the background migration
// scheduler. For file-backed engines it is the clean shutdown: the redo
// log's buffered tail is forced, every file is fsynced, and the
// descriptors are released. Close is idempotent.
func (e *Engine) Close() error {
	e.mu.Lock()
	alreadyClosed := e.closed
	e.closed = true
	sched := e.sched
	e.sched = nil
	fs := e.fs
	now := e.clock.now()
	e.mu.Unlock()
	// Stop outside the lock: the scheduler goroutine takes the read lock.
	if sched != nil {
		sched.Stop()
	}
	if e.msrv != nil && !alreadyClosed {
		e.msrv.Close()
	}
	if fs == nil || alreadyClosed {
		return nil
	}
	var firstErr error
	if e.log != nil {
		if _, err := e.log.Sync(now); err != nil {
			firstErr = err
		}
	}
	if err := fs.closeFiles(true); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// HardStop abandons the engine with no clean shutdown whatsoever: no log
// sync, no file sync, no manifest write — the in-process equivalent of
// kill -9. In-flight operations fail as their file descriptors close.
// Updates not yet written by Sync (or with a filled group-commit batch)
// are lost, exactly as a killed process would lose them; everything
// committed is recovered by the next OpenEngineDir. On an in-memory engine
// it behaves like Close.
//
// It exists for crash-recovery tests and demos; production code wants
// Close.
func (e *Engine) HardStop() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	e.closed = true
	sched := e.sched
	e.sched = nil
	fs := e.fs
	e.mu.Unlock()
	if sched != nil {
		sched.Stop()
	}
	if e.msrv != nil {
		e.msrv.Close()
	}
	if fs != nil {
		return fs.closeFiles(false)
	}
	return nil
}

// Crash simulates a failure of the whole engine: every volatile structure
// is dropped and a new Engine is rebuilt from the shared redo log, the
// SSD-resident runs, and the per-table main data (paper §3.6, extended to
// the catalog). On a file-backed engine the crash is real: a HardStop
// followed by a fresh OpenEngineDir of the same directory.
func (e *Engine) Crash() (*Engine, error) {
	return e.crash(defaultRebuildWorkers)
}

// crash is Crash with recovery's rebuild concurrency explicit (see
// recoverTables; only the differential tests pass 0).
func (e *Engine) crash(rebuildWorkers int) (*Engine, error) {
	e.mu.RLock()
	fs := e.fs
	e.mu.RUnlock()
	if fs == nil {
		return e.crashInMemory(rebuildWorkers)
	}
	if err := e.HardStop(); err != nil {
		return nil, err
	}
	return openEngineDir(fs.dir, fs.opts, rebuildWorkers)
}
