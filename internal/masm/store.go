package masm

import (
	"fmt"
	"sync"

	"masm/internal/extsort"
	"masm/internal/memtable"
	"masm/internal/obs"
	"masm/internal/runfile"
	"masm/internal/sim"
	"masm/internal/storage"
	"masm/internal/table"
	"masm/internal/update"
)

// RunMeta describes a materialized sorted run's location for the redo
// log, so crash recovery can rebuild the run set (the run data itself is
// on the non-volatile SSD; only the in-memory metadata and run index need
// reconstruction). Format and CRC pin down the on-disk data: recovery
// refuses a run written by a future format and verifies the checksum while
// rebuilding, so a corrupted or half-written run is detected instead of
// decoded as garbage.
type RunMeta struct {
	RunID  int64
	Off    int64
	Size   int64
	MaxTS  int64
	Passes int
	// Format is the run's on-disk format version (runfile.FormatVersion at
	// write time).
	Format uint16
	// CRC is the CRC-32C of the run's Size data bytes.
	CRC uint32
	// IndexSize is the byte length of the persisted zone-map block that
	// follows the data in the run's extent.
	IndexSize int64
}

// RedoLogger is the hook into the database redo log (paper §3.6). MaSM
// logs incoming updates (so the volatile in-memory buffer is recoverable),
// flush and merge records (so recovery knows which updates already reside
// on the non-volatile SSD, and where), and migration begin/close records
// (so an interrupted migration is redone idempotently).
type RedoLogger interface {
	LogUpdate(at sim.Time, rec update.Record) (sim.Time, error)
	// LogTxnBatch persists a whole commit's write set as one atomic log
	// record (a single CRC-framed frame: after a crash either every record
	// of the commit replays or none does). BatchBase identifies the
	// physical log, so a commit spanning tables can verify they all share
	// it.
	LogTxnBatch(at sim.Time, parts []TxnPart) (sim.Time, error)
	BatchBase() any
	LogFlush(at sim.Time, run RunMeta) (sim.Time, error)
	LogMerge(at sim.Time, run RunMeta, consumed []int64) (sim.Time, error)
	LogMigrationBegin(at sim.Time, migTS int64, runIDs []int64) (sim.Time, error)
	// LogMigrationPortion closes a migration-begin record: the migrated
	// span's pages are durable and recovery need not redo it. Only the
	// runs listed in consumed are deleted — every run the migration's
	// sweep has applied across the whole table, so the full begin set for
	// a whole-table migration and nothing for a portion in mid-sweep.
	LogMigrationPortion(at sim.Time, migTS int64, consumed []int64) (sim.Time, error)
}

// Stats accumulates the counters behind the paper's design-goal analysis
// (§3.7): total SSD writes per update record, flush/merge/migration
// activity, and cache occupancy.
type Stats struct {
	UpdatesAccepted int64
	// RecordWritesSSD counts record-write events to the SSD: +1 per
	// record in a 1-pass run, +1 more each time a record is rewritten
	// into a 2-pass run. WritesPerUpdate = RecordWritesSSD/UpdatesAccepted
	// is the quantity bounded by Theorems 3.2/3.3.
	RecordWritesSSD int64
	BytesWrittenSSD int64
	OnePassRuns     int64
	TwoPassMerges   int64
	PagesStolen     int64
	Migrations      int64
	MigratedRecords int64
}

// WritesPerUpdate returns the measured average number of times an update
// record was written to SSD.
func (s Stats) WritesPerUpdate() float64 {
	if s.UpdatesAccepted == 0 {
		return 0
	}
	return float64(s.RecordWritesSSD) / float64(s.UpdatesAccepted)
}

// Store is one MaSM update cache attached to one table: the in-memory
// update buffer, the materialized sorted runs on the SSD volume, and the
// machinery to merge them into range scans and migrate them back into the
// main data.
type Store struct {
	cfg    Config
	tbl    *table.Table
	ssd    *storage.Volume
	oracle *Oracle
	log    RedoLogger
	// alloc is the table's partition of the SSD volume's SharedAlloc; its
	// table id names this store within an engine sharing one SSD volume,
	// WAL and oracle.
	alloc *Partition

	mu   sync.Mutex
	buf  *memtable.Buffer
	runs []*runfile.Run // oldest first
	// runBytes is the summed Size of s.runs, maintained at every run-set
	// mutation so the per-update cache-fill check is O(1) instead of a
	// walk of the run list under the latch.
	runBytes int64
	// runFilterBytes is the summed FilterBytes of s.runs: DRAM outside the
	// αM budget, like the run indexes.
	runFilterBytes int64
	nextRunID      int64
	// queryPagesInUse counts memory pages pinned by open queries'
	// Run_scan read buffers; MaSM-M steals idle query pages for the
	// update buffer (paper Fig 8).
	queryPagesInUse int
	stolenPages     int
	// readers counts the open readers at each read timestamp: queries,
	// snapshots (even with no query open) and point lookups in flight. The
	// §3.5 merge-safety policy and the migration wait respect every one.
	// Only addReaderLocked and dropReaderLocked change it; queries and
	// snapshots count the open ones of each kind for their gauges.
	readers            map[int64]int
	queries, snapshots int
	// pins counts open queries, lookups and migrations holding each run;
	// dead parks retired runs whose extents cannot be reclaimed until their
	// pins drain.
	pins map[int64]int
	dead map[int64]*runfile.Run
	// extents records the allocated extent per run ID. Allocation happens
	// before the run is written, so (especially for 2-pass merges, whose
	// output shrinks under duplicate combining) the extent may be larger
	// than the run's final size.
	extents   map[int64]extent
	migrating bool
	// failMigrate, when non-nil, fails every BeginMigration with this
	// error — a test failpoint for modeling one broken table in a shared
	// catalog (see FailMigrations).
	failMigrate error
	// Incremental-migration sweep state (§3.5): the next portion's start
	// key and the timestamp of the current sweep's first portion.
	portionCursor uint64
	sweepFloorTS  int64
	// m holds the store's metric handles (never nil). The counters are
	// the single source of truth behind Stats(); the gauges mirror the
	// live state fields above at every mutation site and CheckMetrics
	// reconciles the two.
	m *StoreMetrics
}

// NewStore creates a MaSM store over the given table, SSD volume (the
// update cache) and timestamp oracle, drawing its run extents from alloc,
// the table's partition of the volume's SharedAlloc; the partition's table
// id is the store's. logger may be nil to run without a redo log.
//
// m supplies the store's metric handles (an engine passes handles from
// its shared registry, labeled with the table name); nil gets a private
// registry so counters — and the Stats() view derived from them — work
// everywhere.
func NewStore(cfg Config, tbl *table.Table, ssd *storage.Volume, oracle *Oracle,
	logger RedoLogger, alloc *Partition, m *StoreMetrics) (*Store, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ssd.Size() < cfg.SSDCapacity {
		return nil, fmt.Errorf("masm: SSD volume %d bytes smaller than configured cache %d",
			ssd.Size(), cfg.SSDCapacity)
	}
	if m == nil {
		m = NewStoreMetrics(obs.NewRegistry())
	}
	s := &Store{
		m:       m,
		cfg:     cfg,
		tbl:     tbl,
		ssd:     ssd,
		oracle:  oracle,
		log:     logger,
		buf:     memtable.New(cfg.SPages() * cfg.SSDPage),
		alloc:   alloc,
		readers: make(map[int64]int),
		pins:    make(map[int64]int),
		dead:    make(map[int64]*runfile.Run),
		extents: make(map[int64]extent),
	}
	return s, nil
}

// Config returns the store's configuration.
func (s *Store) Config() Config { return s.cfg }

// TableID returns the table identity this store carries within its engine:
// its partition's table id.
func (s *Store) TableID() uint32 { return s.alloc.table }

func (s *Store) idleLocked() bool {
	return len(s.readers) == 0 && !s.migrating
}

// addReaderLocked registers one open reader at ts. Caller holds s.mu.
func (s *Store) addReaderLocked(ts int64) { s.readers[ts]++ }

// dropReaderLocked unregisters one reader at ts. Caller holds s.mu.
func (s *Store) dropReaderLocked(ts int64) {
	if s.readers[ts]--; s.readers[ts] == 0 {
		delete(s.readers, ts)
	}
}

// ReleaseAllRuns frees every live run's extent back to the allocator and
// empties the run set; DropTable uses it to return a dropped table's SSD
// space to the shared pool. It fails unless the store is idle.
func (s *Store) ReleaseAllRuns() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.idleLocked() {
		return fmt.Errorf("masm: table %d still has active readers or a migration", s.TableID())
	}
	for _, r := range s.runs {
		s.accountRunLocked(r, -1)
		s.releaseRunLocked(r)
	}
	s.runs = nil
	s.m.RunCount.Set(0)
	return nil
}

// SetScanGranularity switches the effective run-index granularity used by
// subsequent queries, selecting between the paper's coarse-grain and
// fine-grain configurations (§3.5) without rebuilding the runs — run
// indexes are built fine-grained and subsampled at scan time.
func (s *Store) SetScanGranularity(bytes int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cfg.ScanGranularity = bytes
}

// Stats returns a snapshot of the store's counters. It is a derived view
// over the metric registry — the counters the registry holds are the
// single source of truth — kept for API stability and cheap structured
// access.
func (s *Store) Stats() Stats {
	return Stats{
		UpdatesAccepted: s.m.UpdatesAccepted.Value(),
		RecordWritesSSD: s.m.RecordWritesSSD.Value(),
		BytesWrittenSSD: s.m.BytesWrittenSSD.Value(),
		OnePassRuns:     s.m.OnePassRuns.Value(),
		TwoPassMerges:   s.m.TwoPassMerges.Value(),
		PagesStolen:     s.m.PagesStolen.Value(),
		Migrations:      s.m.Migrations.Value(),
		MigratedRecords: s.m.MigratedRecords.Value(),
	}
}

// accountRunLocked moves the run-set byte ledgers and their mirroring
// gauges together as r joins (sign +1) or leaves (-1) the live run set;
// every mutation goes through here so the gauges can never drift from the
// state CheckInvariants and CheckMetrics audit. Caller holds s.mu.
func (s *Store) accountRunLocked(r *runfile.Run, sign int64) {
	s.runBytes += sign * r.Size
	s.m.RunBytes.Set(s.runBytes)
	s.runFilterBytes += sign * r.FilterBytes()
	s.m.RunFilterBytes.Set(s.runFilterBytes)
}

// Runs returns the current number of materialized sorted runs.
func (s *Store) Runs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.runs)
}

// CachedBytes returns the bytes of updates held in the cache (runs plus
// the in-memory buffer).
func (s *Store) CachedBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(s.buf.Bytes()) + s.runBytes
}

// Fill returns the cache occupancy fraction of the SSD capacity.
func (s *Store) Fill() float64 {
	return float64(s.CachedBytes()) / float64(s.cfg.SSDCapacity)
}

// ApplyAuto assigns a fresh commit timestamp and caches the update, both
// atomically under the store latch.
func (s *Store) ApplyAuto(at sim.Time, rec update.Record) (sim.Time, error) {
	if err := s.checkRecordSize(&rec); err != nil {
		return at, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	rec.TS = s.oracle.Next()
	return s.applyLocked(at, rec)
}

// checkRecordSize rejects records that could never fit the update buffer.
func (s *Store) checkRecordSize(rec *update.Record) error {
	if update.EncodedSize(rec) > s.cfg.SPages()*s.cfg.SSDPage {
		return fmt.Errorf("masm: update record of %d bytes exceeds the %d-byte update buffer",
			update.EncodedSize(rec), s.cfg.SPages()*s.cfg.SSDPage)
	}
	return nil
}

// applyLocked logs and buffers one stamped record. Caller holds s.mu.
// Logging under the latch keeps the redo log in timestamp order.
func (s *Store) applyLocked(at sim.Time, rec update.Record) (sim.Time, error) {
	if s.log != nil {
		t, err := s.log.LogUpdate(at, rec)
		if err != nil {
			return at, err
		}
		at = t
	}
	return s.applyNoLogLocked(at, rec)
}

// applyNoLogLocked buffers one stamped record without writing a per-record
// redo entry: the caller has already made the record recoverable (a
// commit logs its whole write set as one frame before publication).
// Flushes triggered here still log their run records. Caller holds s.mu.
func (s *Store) applyNoLogLocked(at sim.Time, rec update.Record) (sim.Time, error) {
	for !s.buf.Append(rec) {
		// Buffer full. Steal an idle query page if one exists (Fig 8,
		// Incoming Updates lines 2–3), otherwise materialize a 1-pass run
		// (lines 4–6).
		if s.queryPagesInUse+s.stolenPages < s.cfg.QueryPages() {
			s.stolenPages++
			s.m.PagesStolen.Inc()
			s.buf.SetCapacity((s.cfg.SPages() + s.stolenPages) * s.cfg.SSDPage)
			continue
		}
		t, err := s.flushLocked(at, memtable.MaxDrain)
		if err != nil {
			return at, err
		}
		at = t
	}
	s.m.UpdatesAccepted.Inc()
	s.m.MemtableBytes.Set(int64(s.buf.Bytes()))
	return at, nil
}

// flushLocked drains buffered records with timestamps below beforeTS into
// a new 1-pass materialized sorted run. Caller holds s.mu.
func (s *Store) flushLocked(at sim.Time, beforeTS int64) (sim.Time, error) {
	recs := s.buf.Drain(beforeTS)
	if len(recs) == 0 {
		return at, nil
	}
	// Duplicate updates to the same key may be collapsed when no active
	// query's timestamp falls between theirs (§3.5).
	recs = s.combineLocked(recs)
	size := int64(0)
	for i := range recs {
		size += int64(update.EncodedSize(&recs[i]))
	}
	// The extent also holds the trailing zone-map block; reserve its upper
	// bound and return the unused tail once the exact block size is known.
	extSize := roundUp(size+runfile.MaxIndexBlockSize(size, s.cfg.Run), int64(s.cfg.SSDPage))
	off, err := s.alloc.Alloc(extSize)
	if err != nil {
		// Put the drained records back: they were acknowledged to their
		// writers and must stay readable. The buffer overfills past its
		// capacity until migration frees SSD space.
		s.buf.Restore(recs)
		return at, err
	}
	id := s.nextRunID
	s.nextRunID++
	run, end, err := runfile.WriteRun(s.ssd, off, at, id, recs, s.cfg.Run)
	if err != nil {
		s.buf.Restore(recs)
		s.alloc.Release(off, extSize)
		return at, err
	}
	run.Table = s.TableID()
	if used := roundUp(run.Size+run.IndexSize, int64(s.cfg.SSDPage)); used < extSize {
		s.alloc.Release(off+used, extSize-used)
		extSize = used
	}
	if s.log != nil {
		// Log the flush record before publishing the run. If the record
		// cannot be made durable (EIO/ENOSPC on the log path), the run would
		// be unrecoverable after a crash while recovery also dropped its
		// updates from the replayed buffer — so the flush unwinds completely
		// instead: records back in the buffer, extent back in the pool, and
		// the store exactly as it was. The caller sees an ENOSPC-like,
		// lossless failure.
		t, lerr := s.log.LogFlush(end, RunMeta{RunID: id, Off: off, Size: run.Size, MaxTS: run.MaxTS,
			Passes: 1, Format: runfile.FormatVersion, CRC: run.CRC, IndexSize: run.IndexSize})
		if lerr != nil {
			s.buf.Restore(recs)
			s.alloc.Release(off, extSize)
			return at, lerr
		}
		end = t
	}
	s.extents[id] = extent{off: off, size: extSize}
	s.runs = append(s.runs, run)
	s.accountRunLocked(run, +1)
	s.m.RunCount.Set(int64(len(s.runs)))
	s.m.OnePassRuns.Inc()
	s.m.RecordWritesSSD.Add(run.Count)
	s.m.BytesWrittenSSD.Add(run.Size + run.IndexSize)
	s.m.MemtableDrains.Inc()
	s.m.FlushBatchRecords.Observe(run.Count)
	s.m.trace("flush", "end", fmt.Sprintf("run=%d records=%d bytes=%d", id, run.Count, run.Size), int64(end))
	// Return stolen pages: the buffer shrinks back to S pages (Fig 8,
	// "Reset the in-memory buffer to have S empty pages").
	s.stolenPages = 0
	s.buf.SetCapacity(s.cfg.SPages() * s.cfg.SSDPage)
	s.m.MemtableBytes.Set(int64(s.buf.Bytes()))
	return end, nil
}

// combineLocked collapses duplicate-key records in a sorted batch under
// the active-query safety policy. Caller holds s.mu.
func (s *Store) combineLocked(recs []update.Record) []update.Record {
	if len(recs) < 2 {
		return recs
	}
	policy := s.mergePolicyLocked()
	out := recs[:0]
	for _, r := range recs {
		if len(out) > 0 {
			last := &out[len(out)-1]
			if last.Key == r.Key && policy(last.TS, r.TS) {
				*last = update.Merge(last, &r)
				continue
			}
		}
		out = append(out, r)
	}
	return out
}

// readerTSsLocked returns the distinct timestamps of the open readers.
// Caller holds s.mu.
func (s *Store) readerTSsLocked() []int64 {
	if len(s.readers) == 0 {
		return nil
	}
	qts := make([]int64, 0, len(s.readers))
	for ts := range s.readers {
		qts = append(qts, ts)
	}
	return qts
}

// mergePolicyLocked returns the §3.5 safety policy: two updates with
// timestamps t1 < t2 may merge iff no open reader (query, snapshot or
// lookup) has timestamp t with t1 < t ≤ t2. Caller holds s.mu; the returned
// closure snapshots the active set.
func (s *Store) mergePolicyLocked() extsort.MergePolicy {
	qts := s.readerTSsLocked()
	if len(qts) == 0 {
		return extsort.MergeAll
	}
	return func(older, newer int64) bool {
		for _, t := range qts {
			if older < t && t <= newer {
				return false
			}
		}
		return true
	}
}

// Flush forces the buffered updates into a 1-pass run (used by tests and
// by graceful shutdown).
func (s *Store) Flush(at sim.Time) (sim.Time, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushLocked(at, memtable.MaxDrain)
}

// mergeRunsLocked merges the n earliest 1-pass runs into one 2-pass run
// (paper Fig 8, Table Range Scan Setup lines 5–8). Caller holds s.mu.
// The merged runs are adjacent in time order, so combining them preserves
// every query's view.
//
// At the very bottom of the α range (α = 2/∛M), 2-pass runs alone can
// exceed the query pages; then the earliest runs are merged regardless of
// pass count, producing a higher-pass run (the paper's lower bound on α
// makes this unnecessary except at the boundary).
func (s *Store) mergeRunsLocked(at sim.Time, n int) (sim.Time, error) {
	// Collect the n earliest 1-pass runs, keeping their positions.
	idx := make([]int, 0, n)
	for i, r := range s.runs {
		if r.Passes == 1 {
			idx = append(idx, i)
			if len(idx) == n {
				break
			}
		}
	}
	if len(idx) < 2 {
		// Fall back to merging the earliest runs of any pass.
		idx = idx[:0]
		for i := range s.runs {
			idx = append(idx, i)
			if len(idx) == n {
				break
			}
		}
	}
	if len(idx) < 2 {
		return at, fmt.Errorf("masm: need at least two runs to merge, have %d", len(s.runs))
	}
	olds := make([]*runfile.Run, len(idx))
	iters := make([]update.Iterator, len(idx))
	var totalSize int64
	passes := 1
	for i, j := range idx {
		olds[i] = s.runs[j]
		if olds[i].Passes >= passes {
			passes = olds[i].Passes + 1
		}
		// Full-range scan with an unbounded query timestamp: the merge
		// must carry every record.
		sc := olds[i].Scan(at, 0, ^uint64(0), int64(1)<<62, s.cfg.Run.IOSize)
		iters[i] = sc
		totalSize += olds[i].Size
	}
	merger, err := extsort.NewMerger(iters...)
	if err != nil {
		return at, err
	}
	combined := extsort.NewCombiner(merger, s.mergePolicyLocked())
	// The consumption below is deliberately record-at-a-time
	// (Combiner.Next, which pulls its source one record at a time): the
	// source run scanners READ and the output writer WRITES the same SSD
	// timeline, and the simulated device services requests in submission
	// order. Batched consumer lookahead would hoist scanner reads ahead
	// of interleaved writer chunks and shift every virtual timestamp
	// downstream. The merge is still loser-tree-fast; only the consumer's
	// pull granularity stays at one record.

	extSize := roundUp(totalSize+runfile.MaxIndexBlockSize(totalSize, s.cfg.Run), int64(s.cfg.SSDPage))
	off, err := s.alloc.Alloc(extSize)
	if err != nil {
		return at, err
	}
	id := s.nextRunID
	s.nextRunID++
	w, err := runfile.NewWriter(s.ssd, off, at, id, s.cfg.Run)
	if err != nil {
		s.alloc.Release(off, extSize)
		return at, err
	}
	var count int64
	for {
		rec, ok, err := combined.Next()
		if err != nil {
			s.alloc.Release(off, extSize)
			return at, err
		}
		if !ok {
			break
		}
		if err := w.Append(rec); err != nil {
			s.alloc.Release(off, extSize)
			return at, err
		}
		count++
	}
	merged, end, err := w.Close(passes)
	if err != nil {
		s.alloc.Release(off, extSize)
		return at, err
	}
	merged.Table = s.TableID()
	// Duplicate combining can shrink the merged run well below the sum of
	// its inputs; return the unused tail of the extent.
	if used := roundUp(merged.Size+merged.IndexSize, int64(s.cfg.SSDPage)); used < extSize {
		s.alloc.Release(off+used, extSize-used)
		extSize = used
	}
	// The writer's virtual time must not run ahead of the readers': the
	// merge finishes when both the last read and last write complete.
	for _, it := range iters {
		end = sim.MaxTime(end, it.(*runfile.Scanner).Time())
	}
	if s.log != nil {
		// As in flushLocked, the merge record goes down before the in-memory
		// run set changes: if the record cannot be written, the merge unwinds
		// (only the output extent is released) and the input runs stay live —
		// nothing is lost and the store remains usable. The write-ahead
		// ordering is unchanged: the record still becomes durable before the
		// consumed runs' extents can ever be reused.
		oldIDs := make([]int64, len(olds))
		for i, o := range olds {
			oldIDs[i] = o.ID
		}
		t, lerr := s.log.LogMerge(end,
			RunMeta{RunID: id, Off: off, Size: merged.Size, MaxTS: merged.MaxTS,
				Passes: 2, Format: runfile.FormatVersion, CRC: merged.CRC,
				IndexSize: merged.IndexSize}, oldIDs)
		if lerr != nil {
			s.alloc.Release(off, extSize)
			return at, lerr
		}
		end = t
	}
	// Replace the old runs with the merged one at the position of the
	// earliest, preserving time order of the remaining runs.
	first := idx[0]
	kept := s.runs[:0]
	for i, r := range s.runs {
		drop := false
		for _, j := range idx {
			if i == j {
				drop = true
				break
			}
		}
		if !drop {
			kept = append(kept, r)
		}
	}
	s.runs = append(kept, nil)
	copy(s.runs[first+1:], s.runs[first:len(s.runs)-1])
	s.runs[first] = merged
	s.accountRunLocked(merged, +1)
	s.extents[id] = extent{off: off, size: extSize}
	for _, o := range olds {
		s.accountRunLocked(o, -1)
		s.releaseRunLocked(o)
	}
	s.m.RunCount.Set(int64(len(s.runs)))
	s.m.TwoPassMerges.Inc()
	s.m.RecordWritesSSD.Add(count)
	s.m.BytesWrittenSSD.Add(merged.Size + merged.IndexSize)
	s.m.addMerger(merger.Stats())
	s.m.trace("merge", "end",
		fmt.Sprintf("run=%d consumed=%d records=%d bytes=%d", id, len(olds), count, merged.Size), int64(end))
	return end, nil
}

// releaseRunLocked frees the extent behind a run (or parks it in dead if
// still pinned by open queries, lookups or a migration). Caller holds s.mu.
func (s *Store) releaseRunLocked(r *runfile.Run) {
	if s.pins[r.ID] > 0 {
		s.dead[r.ID] = r
		return
	}
	if e, ok := s.extents[r.ID]; ok {
		s.alloc.Release(e.off, e.size)
		delete(s.extents, r.ID)
	}
}

// unpinRunLocked drops one pin on a run, releasing a parked dead run whose
// pins have drained. Caller holds s.mu.
func (s *Store) unpinRunLocked(id int64) {
	s.pins[id]--
	if s.pins[id] <= 0 {
		delete(s.pins, id)
		if r, ok := s.dead[id]; ok {
			delete(s.dead, id)
			s.releaseRunLocked(r)
		}
	}
}

func roundUp(n, unit int64) int64 { return (n + unit - 1) / unit * unit }
