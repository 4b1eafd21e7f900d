package masm

import (
	"errors"
	"fmt"
	"slices"

	"masm/internal/extsort"
	"masm/internal/runfile"
	"masm/internal/sim"
	"masm/internal/table"
	"masm/internal/update"
)

// ErrActiveQueries is returned by BeginMigration while queries older than
// the migration timestamp are still open. The paper's migration thread
// waits for them (§3.2); callers should close those queries and retry.
var ErrActiveQueries = errors.New("masm: queries older than the migration timestamp are still active")

// ErrMigrationInProgress is returned when a migration is already running.
var ErrMigrationInProgress = errors.New("masm: migration already in progress")

// MigrateReport summarizes one completed migration. SweepDone reports
// that it finished a sweep of the whole table: a whole-table migration
// always does, a portion when it was the sweep's last.
type MigrateReport struct {
	MigTS        int64
	RunsMigrated int
	SweepDone    bool
	table.ApplyResult
}

// Migration is an in-flight update migration: the paper's migration thread
// (§3.2) over one key span — the whole table, or one portion of an
// incremental sweep (§3.5). Between beginning and Run, new queries may
// start; they carry timestamps after the migration's, continue to see the
// migrating runs, and rely on the page-timestamp check to avoid observing
// an update twice once its page has been rewritten.
type Migration struct {
	s     *Store
	migTS int64
	runs  []*runfile.Run
	// pending carries buffered updates below migTS that could not be
	// flushed to a run (exhausted SSD extent allocator): they are merged
	// into the migration directly from memory. The records stay in the
	// buffer — visible to concurrent queries — until the migration
	// completes and the pages carry their effects.
	pending []update.Record
	// [begin, end] is the migrated key span and next the sweep cursor once
	// it is done. last marks the span that completes a sweep of the table;
	// runs whose newest record predates floorTS, the timestamp of the
	// sweep's first span, have then been applied everywhere and are deleted.
	begin, end, next uint64
	last             bool
	floorTS          int64
	at               sim.Time
	done             bool
}

// BeginMigration logs the migration timestamp and the IDs of the current
// set R of materialized sorted runs, after verifying that no query older
// than the timestamp is active. pages 0 migrates the whole table; a
// positive pages migrates the next pages table pages of the incremental
// sweep (paper §3.5, "Improving Migration"), which cycles through the key
// space and deletes the runs a completed sweep has fully applied.
func (s *Store) BeginMigration(at sim.Time, pages int) (*Migration, error) {
	if pages < 0 {
		return nil, errors.New("masm: negative portion size")
	}
	s.mu.Lock()
	if s.failMigrate != nil {
		err := s.failMigrate
		s.mu.Unlock()
		return nil, err
	}
	if s.migrating {
		s.mu.Unlock()
		return nil, ErrMigrationInProgress
	}
	migTS := s.oracle.Next()
	for _, qts := range s.readerTSsLocked() {
		if qts < migTS {
			s.mu.Unlock()
			return nil, ErrActiveQueries
		}
	}
	m := &Migration{s: s, migTS: migTS, end: ^uint64(0), last: true, floorTS: migTS}
	// Flush the buffered updates older than the migration timestamp into
	// a run so that the set R covers every update with ts < migTS. This
	// is what entitles migrated pages to carry the timestamp migTS: a
	// page stamp of migTS asserts "all cached updates below migTS are
	// applied here". When the flush fails — an exhausted extent
	// allocator, exactly the state migration exists to clear — a
	// whole-table migration carries the buffered records into the merge
	// directly from memory instead (they remain in the buffer, still
	// visible to concurrent queries, until the migrated pages absorb
	// them). A portion cannot: dropping the records from the buffer
	// afterwards is only sound when the whole key range was rewritten.
	sortStart := at
	if t, err := s.flushLocked(at, migTS); err == nil {
		at = t
	} else if pages > 0 {
		s.mu.Unlock()
		return nil, err
	} else {
		m.pending = s.buf.Drain(migTS)
		s.buf.Restore(m.pending)
	}
	s.m.MigrationSortNanos.Observe(int64(at.Sub(sortStart)))
	if pages > 0 {
		m.begin = s.portionCursor
		if m.begin == 0 {
			s.sweepFloorTS = migTS
		}
		m.floorTS = s.sweepFloorTS
		if m.next, m.last = s.tbl.SpanBounds(m.begin, pages); !m.last && m.next > 0 {
			m.end = m.next - 1
		}
	}
	// Pin the migrating run set: the migration reads these runs' extents
	// outside the latch, and a concurrent query-setup merge must not free
	// them underneath it. Unpinned on completion or abort.
	m.runs = append([]*runfile.Run(nil), s.runs...)
	ids := make([]int64, len(m.runs))
	for i, r := range m.runs {
		s.pins[r.ID]++
		ids[i] = r.ID
	}
	s.migrating = true
	s.mu.Unlock()

	if s.log != nil {
		// A portion logs a full begin record too: interrupted, it redoes as
		// a (larger, idempotent) whole-table migration on recovery.
		t, err := s.log.LogMigrationBegin(at, migTS, ids)
		if err != nil {
			s.abortMigration(m.runs)
			return nil, err
		}
		at = t
	}
	s.m.trace("migration", "begin", fmt.Sprintf("migTS=%d runs=%d", migTS, len(m.runs)), int64(at))
	m.at = at
	return m, nil
}

// Run performs the migration: a scan of the span's pages merging the run
// set into them, written back with large sequential I/Os, then logs
// completion and deletes the runs a finished sweep has fully applied.
// Runs still pinned by concurrent (newer) queries are parked until those
// queries close.
//
// Whatever the outcome the migration is finished for good: an error drops
// its run pins, so a retry would read unpinned extents. Callers begin
// again. A failure to log the closing record leaves the span's pages
// written but undeclared: recovery sees the begin record without a close
// and redoes a full (idempotent) migration, nothing is released, the
// sweep cursor does not advance, and the slots the span's ref flips
// retired stay retired — the lagging durable manifest may still name
// them — until the table's next committed checkpoint.
func (m *Migration) Run() (sim.Time, *MigrateReport, error) {
	if m.done {
		return m.at, nil, errors.New("masm: migration already completed")
	}
	m.done = true
	s := m.s
	if len(m.runs) == 0 && len(m.pending) == 0 && m.begin == 0 && m.last {
		s.abortMigration(nil)
		return m.at, &MigrateReport{MigTS: m.migTS, SweepDone: true}, nil
	}
	// The SSD reads of the run scanners overlap the disk scan; the merge
	// ends at the later of the two.
	scanners := make([]*runfile.Scanner, len(m.runs))
	iters := make([]update.Iterator, 0, len(m.runs)+1)
	for i, r := range m.runs {
		scanners[i] = r.Scan(m.at, m.begin, m.end, m.migTS, s.cfg.Run.IOSize)
		iters = append(iters, scanners[i])
	}
	if len(m.pending) > 0 {
		// The memory-resident leg of an exhausted-cache migration; the
		// slice iterator batches natively, so the merge consumes it at
		// full speed alongside the run scanners.
		iters = append(iters, update.NewSliceIterator(m.pending))
	}
	var end sim.Time
	var res table.ApplyResult
	merger, err := extsort.NewMerger(iters...)
	if err == nil {
		end, res, err = s.tbl.ApplyStream(m.at, m.migTS, merger, migrateBatch, m.begin, m.end)
	}
	if err != nil {
		s.abortMigration(m.runs)
		return m.at, nil, err
	}
	s.m.addMerger(merger.Stats())
	for _, sc := range scanners {
		end = sim.MaxTime(end, sc.Time())
	}
	s.m.MigrationMergeNanos.Observe(int64(end.Sub(m.at)))
	// The closing record consumes only the runs the sweep has applied across
	// the whole table — for a whole-table migration its begin set, mid-sweep
	// none: deleting more would discard every run record outside this span's
	// key range at the next recovery. They are computed first, logged, and
	// only then released (the record must be durable before their extents
	// can be reused); concurrent flushes only mint runs with newer records,
	// and merges wait for the migration, so the set is stable.
	var consumed []*runfile.Run
	var ids []int64
	if m.last {
		s.mu.Lock()
		for _, r := range s.runs {
			if r.MaxTS < m.floorTS {
				consumed = append(consumed, r)
				ids = append(ids, r.ID)
			}
		}
		s.mu.Unlock()
	}
	if s.log != nil {
		commitStart := end
		if end, err = s.log.LogMigrationPortion(end, m.migTS, ids); err != nil {
			s.abortMigration(m.runs)
			return m.at, nil, err
		}
		s.m.MigrationCommitNanos.Observe(int64(end.Sub(commitStart)))
	}
	// The closing record's checkpoint has durably committed the flipped refs
	// (without a log there is no lagging durable manifest either): the
	// slots the shadow batches replaced are no longer reachable from any
	// persisted state and may be reused.
	s.tbl.ReclaimRetired()

	s.mu.Lock()
	for _, r := range m.runs {
		s.unpinRunLocked(r.ID)
	}
	if m.last {
		s.runs = slices.DeleteFunc(s.runs, func(r *runfile.Run) bool { return slices.Contains(consumed, r) })
		for _, r := range consumed {
			s.accountRunLocked(r, -1)
			s.m.MigrationBytesRead.Add(r.Size)
			s.releaseRunLocked(r)
		}
		s.m.RunCount.Set(int64(len(s.runs)))
		s.m.Migrations.Inc()
		s.m.MigrationRunsMigrated.Add(int64(len(consumed)))
		m.next = 0
	}
	s.portionCursor = m.next
	if len(m.pending) > 0 {
		// The memory-migrated records are now applied to pages stamped
		// migTS; drop them from the buffer (scans ahead of the drop read
		// the fresh pages, and the page-timestamp check keeps any record
		// still buffered from double-applying either way).
		s.buf.Drain(m.migTS)
		s.m.MemtableBytes.Set(int64(s.buf.Bytes()))
	}
	s.m.MigratedRecords.Add(res.RecordsApplied)
	s.m.MigrationPagesRead.Add(res.PagesRead)
	s.m.MigrationPagesWritten.Add(res.PagesWritten)
	s.migrating = false
	s.mu.Unlock()
	s.syncSlotGauges()
	s.m.trace("migration", "end",
		fmt.Sprintf("migTS=%d runs=%d records=%d sweepDone=%v", m.migTS, len(consumed), res.RecordsApplied, m.last), int64(end))
	return end, &MigrateReport{MigTS: m.migTS, RunsMigrated: len(consumed), SweepDone: m.last, ApplyResult: res}, nil
}

// abortMigration clears the in-flight flag and drops the pins taken on
// the migrating run set.
func (s *Store) abortMigration(pinned []*runfile.Run) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range pinned {
		s.unpinRunLocked(r.ID)
	}
	s.migrating = false
}

// FailMigrations arms (or, with nil, disarms) a migration failpoint:
// while set, every BeginMigration on this store fails with err before
// touching any state. Scheduler tests use it to model a table whose
// migration path is transiently broken (a full redo device, a bad extent)
// while the rest of the catalog stays healthy.
func (s *Store) FailMigrations(err error) {
	s.mu.Lock()
	s.failMigrate = err
	s.mu.Unlock()
}

// Migrate begins and runs a whole-table migration in one call: the common
// path when the caller knows no older queries are active.
func (s *Store) Migrate(at sim.Time) (sim.Time, *MigrateReport, error) {
	m, err := s.BeginMigration(at, 0)
	if err != nil {
		return at, nil, err
	}
	return m.Run()
}
