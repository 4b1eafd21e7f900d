package masm

// Crash recovery (paper §3.6, extended to the catalog of §5). There is one
// procedure, recoverTables; reopenEngineDir (a directory whose previous
// owner died or closed) and Engine.Crash on an in-memory engine both reach
// it, differing only in where the old and new log volumes and the table
// heaps come from.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	core "masm/internal/masm"
	"masm/internal/runfile"
	"masm/internal/sim"
	"masm/internal/storage"
	"masm/internal/table"
	"masm/internal/txn"
	"masm/internal/wal"
)

// recoverTables rebuilds every table's store from the redo log on oldLog,
// read from virtual time at, and returns the time recovery completes. e
// arrives with its devices, SSD volume, shared allocator, oracle, registry
// and new redo log (e.log, empty) in place; tables is the catalog in id
// order, each entry holding its heap (tbl) but no store yet. what prefixes
// errors. The steps:
//
//  1. replay: stream the old log through the fold that routes its records
//     to their tables, starting each surviving run's rebuild scan the
//     moment its metadata streams by;
//  2. resume the oracle above every logged timestamp;
//  3. checkpoint the recovered state into the new log, so a crash during
//     or after the rest recovers too;
//  4. build every table's store and reserve its surviving run extents;
//  5. restore each table: run indexes, the lost in-memory buffer, and an
//     interrupted migration's redo.
//
// rebuildWorkers bounds the concurrent rebuild scans. Zero rebuilds every
// run inline inside step 5, priced as it reads — the reference shape the
// differential tests hold the concurrent one to (same rows, same virtual
// clock); everything outside those tests passes defaultRebuildWorkers.
func (e *Engine) recoverTables(what string, oldLog *storage.Volume, at sim.Time, tables []*Table, rebuildWorkers int) (sim.Time, error) {
	start := time.Now()
	ccfg := coreConfig(e.cfg)
	rb := newRunRebuilder(e.ssdVol, ccfg.Run, tables, rebuildWorkers)
	// No scan may outlive recovery: an error return hands the files back
	// to the caller's cleanup while a scan could still be mid-pread. On
	// success every scan has already been waited for.
	defer rb.drain()

	// 1. Replay. Records of tables absent from the catalog belong to
	// dropped tables (the manifest rewrite is the drop's commit point) and
	// are ignored. Frames decode out of a bounded sliding window and fold
	// into per-table state on the spot, so a log of any length replays in
	// O(chunk) memory.
	rep := wal.NewReplayer()
	rep.OnRun = rb.dispatch
	var replayed int64
	now, err := wal.ReadStream(oldLog, at, func(ent wal.Entry) error {
		replayed++
		rep.Observe(ent)
		return nil
	})
	if err != nil {
		return now, fmt.Errorf("masm: %s: %w", what, err)
	}
	states := rep.States()
	e.reg.Gauge("masm_wal_replay_entries").Set(replayed)

	// 2. Resume the shared oracle — above migration timestamps too: they
	// are stamped onto data pages, and would otherwise suppress
	// post-recovery updates (see wal.TableState.MaxTS).
	var maxTS int64
	for _, st := range states {
		e.oracle.AdvanceTo(st.MaxTS)
		if st.MaxTS > maxTS {
			maxTS = st.MaxTS
		}
	}

	// 3. Checkpoint.
	cps := make([]wal.TableCheckpoint, 0, len(tables)+1)
	if maxTS > 0 {
		// Persist the engine-wide high water itself (an entry with no runs
		// or pending records writes only the oracle-advance record), so the
		// NEXT recovery of this checkpoint also resumes above the stamps.
		cps = append(cps, wal.TableCheckpoint{MaxTS: maxTS})
	}
	for _, t := range tables {
		if st := states[t.id]; st != nil {
			cps = append(cps, wal.TableCheckpoint{Table: t.id, Runs: st.Runs, Pending: st.Pending})
		}
	}
	if now, err = e.log.CheckpointAll(now, cps); err != nil {
		return now, err
	}

	// 4. Build every table's store and reserve EVERY table's extents
	// before restoring ANY table (see core.Store.Restore).
	for _, t := range tables {
		if t.store, err = e.newStore(t, e.log.ForTable(t.id)); err != nil {
			return now, fmt.Errorf("masm: %s table %q: %w", what, t.name, err)
		}
		if st := states[t.id]; st != nil {
			if err := t.store.ReserveRunExtents(st.Runs); err != nil {
				return now, fmt.Errorf("masm: %s table %q: %w", what, t.name, err)
			}
		}
	}

	// 5. Restore. Scans of runs the log later consumed are waited out
	// first: their extents are free again, and the first redone migration
	// may reuse them. Live runs are waited on per table, so table k's
	// buffer replay runs under table k+1's scans still in flight.
	rb.settle(states)
	for _, t := range tables {
		st := states[t.id]
		if st == nil {
			st = &wal.TableState{}
		}
		end, err := t.store.Restore(now, st.Runs, rb.wait(t.id), st.Pending, st.RedoMigration)
		if err != nil {
			return now, fmt.Errorf("masm: %s table %q: %w", what, t.name, err)
		}
		now = end
		t.txns = txn.NewManager(t.store)
	}
	e.reg.Gauge("masm_recovery_wall_nanos").Set(time.Since(start).Nanoseconds())
	return now, nil
}

// defaultRebuildWorkers bounds recovery's concurrent run rebuild scans:
// enough preads in flight to keep an SSD's queue busy, few enough that a
// recovery with many runs cannot exhaust OS threads.
const defaultRebuildWorkers = 8

// runRebuilder reconstructs surviving runs' indexes on the data plane while
// the rest of recovery proceeds. A scan is pure data-plane work
// (runfile.LoadIndexOffline — PeekAt, no pricing), so starting one the moment
// its run metadata streams out of the log cannot move the virtual clock; it
// only moves the scan's real I/O wait under the replay's and the restores'
// CPU time. core.Store.Restore charges the recorded spans where an inline
// rebuild would have read.
type runRebuilder struct {
	vol *storage.Volume
	cfg runfile.Config
	// sem bounds the scans in flight; nil (zero workers) turns dispatch
	// into a no-op, leaving every run to core.Store.Restore's inline
	// rebuild.
	sem chan struct{}
	// dispatched is touched only by the recovering goroutine: it dedupes
	// repeated announcements (a checkpointed run re-flushed) and is how
	// that goroutine waits for a scan.
	dispatched map[runKey]chan struct{}

	mu       sync.Mutex
	prebuilt map[uint32]map[int64]core.PrebuiltRun // per live table; inner maps guarded by mu
}

type runKey struct {
	table uint32
	run   int64
}

func newRunRebuilder(vol *storage.Volume, cfg runfile.Config, tables []*Table, workers int) *runRebuilder {
	rb := &runRebuilder{vol: vol, cfg: cfg,
		dispatched: make(map[runKey]chan struct{}),
		prebuilt:   make(map[uint32]map[int64]core.PrebuiltRun, len(tables))}
	if workers > 0 {
		rb.sem = make(chan struct{}, workers)
	}
	for _, t := range tables {
		rb.prebuilt[t.id] = make(map[int64]core.PrebuiltRun)
	}
	return rb
}

// dispatch starts run rm's rebuild scan unless one was already started.
func (rb *runRebuilder) dispatch(table uint32, rm core.RunMeta) {
	if rb.sem == nil {
		return // inline mode
	}
	if rb.prebuilt[table] == nil {
		return // a dropped table's records: replay ignores them too
	}
	k := runKey{table, rm.RunID}
	if _, ok := rb.dispatched[k]; ok {
		return
	}
	done := make(chan struct{})
	rb.dispatched[k] = done
	go func() {
		defer close(done)
		rb.sem <- struct{}{}
		defer func() { <-rb.sem }()
		var pb core.PrebuiltRun
		pb.Run, pb.Spans, pb.Err = runfile.LoadIndexOffline(rb.vol, rm.Off, rm.Size,
			rm.IndexSize, rm.RunID, rm.Passes, rm.CRC, rb.cfg)
		rb.mu.Lock()
		rb.prebuilt[table][rm.RunID] = pb
		rb.mu.Unlock()
	}()
}

// settle dispatches every run that survived replay and waits out the scans
// of runs that did not: a stale scan's result is discarded either way, but
// it must not still be reading when new data lands on its freed extent.
func (rb *runRebuilder) settle(states map[uint32]*wal.TableState) {
	final := make(map[runKey]bool)
	for table, st := range states {
		for _, rm := range st.Runs {
			final[runKey{table, rm.RunID}] = true
			rb.dispatch(table, rm)
		}
	}
	for k, done := range rb.dispatched {
		if !final[k] {
			<-done
		}
	}
}

// wait blocks until every scan dispatched for table has finished and
// returns the table's rebuilt runs.
func (rb *runRebuilder) wait(table uint32) map[int64]core.PrebuiltRun {
	for k, done := range rb.dispatched {
		if k.table == table {
			<-done
		}
	}
	return rb.prebuilt[table]
}

// drain waits for every scan ever dispatched.
func (rb *runRebuilder) drain() {
	for _, done := range rb.dispatched {
		<-done
	}
}

// reopenEngineDir recovers a catalog from an existing directory.
func reopenEngineDir(dir string, opts EngineDirOptions, lock *os.File, rebuildWorkers int) (e *Engine, err error) {
	m, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	// The directory's geometry is authoritative: the caller's CacheBytes
	// sized the cache at creation time and is superseded by what is on
	// disk now. The data file may be grown (it is sparse) to make room for
	// more tables.
	opts.CacheBytes = m.CacheBytes
	if opts.DataBytes > m.DataBytes {
		m.DataBytes = opts.DataBytes
	} else {
		opts.DataBytes = m.DataBytes
	}
	ds := &dirState{dir: dir, opts: opts, m: *m, lock: lock}
	var oldWal storage.Backend
	defer func() {
		if err != nil {
			ds.closeFiles(false)
			if oldWal != nil {
				oldWal.Close()
			}
			// A refused or failed recovery leaves the directory as it found
			// it (once wal.log is superseded the temp name is gone already).
			os.Remove(filepath.Join(dir, walTmpFileName))
		}
	}()
	if ds.data, err = ds.openBackend(dataFileName, m.DataBytes); err != nil {
		return nil, err
	}
	if ds.cache, err = ds.openBackend(cacheFileName, m.CacheBytes*2); err != nil {
		return nil, err
	}
	if oldWal, err = ds.openBackend(walFileName, m.LogBytes); err != nil {
		return nil, err
	}
	// Recovery rewrites the log as a checkpoint of the recovered state.
	// It goes to a temp file that atomically replaces wal.log only after
	// recovery fully succeeds: a crash mid-recovery leaves the old log
	// authoritative and recovery simply runs again.
	if ds.wal, err = ds.openBackend(walTmpFileName, m.LogBytes); err != nil {
		return nil, err
	}
	if e, err = newDirEngine(ds, 2); err != nil {
		return nil, err
	}
	oldLogVol, err := storage.NewVolumeOn(e.hdd, m.DataBytes, oldWal)
	if err != nil {
		return nil, err
	}
	if e.logVol, err = storage.NewVolumeOn(e.hdd, m.DataBytes+m.LogBytes, ds.wal); err != nil {
		return nil, err
	}

	// Restore every table's heap from the manifest and register the whole
	// catalog before any store is rebuilt: the migration-checkpoint hook
	// rewrites the manifest from ds.catalog, so a redo migration on one
	// table must already see the others or it would durably drop them.
	ordered := append([]tableManifest(nil), ds.m.Tables...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].ID < ordered[j].ID })
	for _, tm := range ordered {
		vol, serr := ds.dataRoot.Slice(tm.DataOff, tm.DataBytes)
		if serr != nil {
			return nil, serr
		}
		tbl, terr := table.Restore(vol, m.tableConfig(), tm.Refs, tm.Rows)
		if terr != nil {
			return nil, fmt.Errorf("masm: restore table %q: %w", tm.Name, terr)
		}
		// The shadow-commit stamp survives independently of the WAL: resume
		// the oracle above it so no post-recovery update can mint a
		// timestamp the committed page set already carries, and hand it
		// back to the table so later manifest rewrites never regress it.
		tbl.NoteMigTS(tm.MigTS)
		e.oracle.AdvanceTo(tm.MigTS)
		t := &Table{eng: e, name: tm.Name, id: tm.ID, cacheBudget: tm.CacheBytes,
			dataOff: tm.DataOff, dataBytes: tm.DataBytes, tbl: tbl}
		e.tables[t.name] = t
		e.byID[t.id] = t
		ds.catalog = append(ds.catalog, t)
	}
	e.openLog()

	now, err := e.recoverTables("recover "+dir, oldLogVol, 0, ds.catalog, rebuildWorkers)
	if err != nil {
		return nil, err
	}

	// The checkpoint in the new log is durable (CheckpointAll syncs it)
	// and the header is down even when the checkpoint was empty; the old
	// log can now be atomically superseded. The open descriptor keeps
	// following the renamed file.
	if _, err = e.log.Bootstrap(now); err != nil {
		return nil, err
	}
	if err = oldWal.Close(); err != nil {
		return nil, err
	}
	oldWal = nil
	if err = os.Rename(filepath.Join(dir, walTmpFileName), filepath.Join(dir, walFileName)); err != nil {
		return nil, err
	}
	if err = syncDir(dir); err != nil {
		return nil, err
	}
	// Persist the manifest: DataBytes may have grown.
	if err = ds.checkpointManifest(); err != nil {
		return nil, err
	}
	e.clock.advance(now)
	return e, nil
}

// crashInMemory is Engine.Crash for an engine on simulated devices: the
// devices, table heaps and SSD volume carry over (their bytes are
// "non-volatile"); the run metadata, run indexes and in-memory buffers are
// rebuilt from the log. No sync is forced: entries not yet written are
// genuinely lost, exactly as a crash would lose them.
func (e *Engine) crashInMemory(rebuildWorkers int) (*Engine, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	if e.log == nil {
		e.mu.Unlock()
		return nil, errors.New("masm: crash recovery requires the redo log")
	}
	e.closed = true
	sched := e.sched
	e.sched = nil
	at := e.clock.now()
	old := make([]*Table, 0, len(e.byID))
	for _, t := range e.byID {
		old = append(old, t)
	}
	e.mu.Unlock()
	if sched != nil {
		sched.Stop()
	}
	sort.Slice(old, func(i, j int) bool { return old[i].id < old[j].id })
	// A crash loses the volatile metric state with everything else: the
	// new engine generation starts a fresh registry, and recovery re-primes
	// the state gauges from the recovered state.
	e2 := newEngine(e.cfg, e.hdd, e.ssd, e.ssdVol)
	e2.arena = e.arena
	e2.nextID = e.nextID
	// The new log reuses the old one's volume: replay finishes reading
	// before the checkpoint starts overwriting.
	e2.logVol = e.logVol
	e2.openLog()
	tables := make([]*Table, len(old))
	for i, t := range old {
		t2 := &Table{eng: e2, name: t.name, id: t.id, cacheBudget: t.cacheBudget, tbl: t.tbl}
		e2.tables[t2.name] = t2
		e2.byID[t2.id] = t2
		tables[i] = t2
	}
	now, err := e2.recoverTables("recover", e.logVol, at, tables, rebuildWorkers)
	if err != nil {
		return nil, err
	}
	e2.clock.advance(now)
	return e2, nil
}
