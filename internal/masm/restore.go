package masm

import (
	"fmt"
	"sort"

	"masm/internal/runfile"
	"masm/internal/sim"
	"masm/internal/update"
)

// PrebuiltRun is one surviving run already reconstructed on the data plane
// (runfile.LoadIndexOffline): the rebuilt metadata, the read spans its scan
// issued, and the scan's error if it failed. Recovery produces these
// concurrently — no simulated time is involved in the scan — and hands
// them to Restore, which replays the recorded spans on the simulated
// device serially, at exactly the point in the time chain where an inline
// rebuild would have scanned.
type PrebuiltRun struct {
	Run   *runfile.Run
	Spans []runfile.Span
	Err   error
}

// ReserveRunExtents re-registers a freshly built store's surviving runs
// with its partition, page-rounded exactly as the store sizes extents.
// Recovery calls it for every table before Restore rebuilds any (see
// Restore).
func (s *Store) ReserveRunExtents(runs []RunMeta) error {
	for _, rm := range runs {
		if err := s.alloc.Reserve(rm.Off, roundUp(rm.Size+rm.IndexSize, int64(s.cfg.SSDPage))); err != nil {
			return fmt.Errorf("masm: reserve run %d extent [%d,+%d): %w", rm.RunID, rm.Off, rm.Size, err)
		}
	}
	return nil
}

// Restore rebuilds a freshly built store (NewStore) into its table's state
// after a crash (paper §3.6), starting at virtual time at: the
// surviving materialized sorted runs (their data is on the non-volatile
// SSD) have their in-memory metadata and run indexes reconstructed, and
// the lost in-memory buffer is repopulated from the redo-logged updates
// that had not been flushed. If redoMigration is non-nil, a migration was
// interrupted mid-flight; Restore re-runs it — the page-timestamp check
// makes re-application idempotent, so no undo logging is ever needed for
// data pages.
//
// The caller derives runs, pending and redoMigration by replaying the redo
// log (wal.Replayer), and must already have re-registered every surviving
// run's extent with the store's partition (ReserveRunExtents) — for every
// table of the engine, before restoring any: a restore can allocate fresh extents
// (redoing an interrupted migration flushes the replayed buffer), and
// without the other tables' reservations in place those allocations can
// land on — and overwrite — their durable run data (found by the chaos
// harness as a cross-table recovery corruption).
//
// prebuilt maps RunID to a data-plane rebuild performed offline. Runs
// present in the map skip the priced rebuild — their recorded spans are
// charged on the simulated device instead, serially and in the same
// position of the recovery time chain, so the virtual clock comes out
// bit-identical to rebuilding inline, which is what happens to runs absent
// from the map (or with a nil map): the reference the differential tests
// compare the offline shape against.
//
// Restore repopulates the state gauges — run bytes/count, memtable fill —
// so a recovered engine's metrics resume from the recovered state rather
// than zero. It returns the time the restore completes. Restore runs before
// the store serves anything, so it takes no latch of its own.
func (s *Store) Restore(at sim.Time, runs []RunMeta, prebuilt map[int64]PrebuiltRun,
	pending []update.Record, redoMigration []int64) (sim.Time, error) {
	// Rebuild runs in creation (ID) order, which is also time order.
	sorted := append([]RunMeta(nil), runs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].RunID < sorted[j].RunID })
	var maxTS int64
	for _, rm := range sorted {
		if rm.Format != runfile.FormatVersion {
			return at, fmt.Errorf("masm: restore run %d: run format version %d unsupported (this build reads %d)",
				rm.RunID, rm.Format, runfile.FormatVersion)
		}
		var run *runfile.Run
		if pb, ok := prebuilt[rm.RunID]; ok {
			if pb.Err != nil {
				return at, fmt.Errorf("masm: restore run %d: %w", rm.RunID, pb.Err)
			}
			end, cerr := runfile.ChargeSpans(s.ssd, at, pb.Spans)
			if cerr != nil {
				return at, fmt.Errorf("masm: restore run %d: %w", rm.RunID, cerr)
			}
			run, at = pb.Run, end
		} else {
			// The persisted block reconstructs the index and metadata
			// without decoding records; the data bytes are swept for their
			// checksum, so corruption still fails recovery.
			var end sim.Time
			var err error
			run, end, err = runfile.LoadIndex(s.ssd, rm.Off, rm.Size, rm.IndexSize,
				at, rm.RunID, rm.Passes, rm.CRC, s.cfg.Run)
			if err != nil {
				return at, fmt.Errorf("masm: restore run %d: %w", rm.RunID, err)
			}
			at = end
		}
		run.Table = s.TableID()
		s.extents[rm.RunID] = extent{off: rm.Off, size: roundUp(rm.Size+rm.IndexSize, int64(s.cfg.SSDPage))}
		s.runs = append(s.runs, run)
		s.accountRunLocked(run, +1)
		if rm.RunID >= s.nextRunID {
			s.nextRunID = rm.RunID + 1
		}
		if run.MaxTS > maxTS {
			maxTS = run.MaxTS
		}
	}
	s.m.RunCount.Set(int64(len(s.runs)))
	// Repopulate the in-memory buffer with the unflushed updates.
	for _, rec := range pending {
		if rec.TS > maxTS {
			maxTS = rec.TS
		}
		for !s.buf.Append(rec) {
			end, err := s.flushLocked(at, int64(1)<<62)
			if err != nil {
				return at, err
			}
			at = end
		}
	}
	s.m.MemtableBytes.Set(int64(s.buf.Bytes()))
	s.oracle.AdvanceTo(maxTS)
	// Redo an interrupted migration. The run set may have changed IDs if
	// the crash also lost merges; migrating everything currently live is
	// always correct (a superset of the interrupted set). The redo is a
	// fresh shadow-paged pass: the crashed migration's un-flipped pages are
	// re-merged, while pages whose shadow batch did commit carry the old
	// pass's stamp and are skipped without a write — re-application can
	// neither double-apply nor, since no page is ever rewritten in place,
	// depend on which of the dead pass's writes survived.
	if redoMigration != nil {
		end, _, err := s.Migrate(at)
		if err != nil {
			return at, fmt.Errorf("masm: redo migration: %w", err)
		}
		at = end
	}
	return at, nil
}
