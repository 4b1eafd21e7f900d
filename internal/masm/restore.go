package masm

import (
	"fmt"
	"sort"

	"masm/internal/runfile"
	"masm/internal/sim"
	"masm/internal/storage"
	"masm/internal/table"
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

// Restore rebuilds one table's Store after a crash (paper §3.6): the
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
// run's extent with alloc (ReserveRunExtents) — for every table of the
// engine, before restoring any: a restore can allocate fresh extents
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
// m carries the table's metric handles (nil for a private registry); the
// restore path repopulates the state gauges — run bytes/count, memtable
// fill — so a recovered engine's metrics resume from the recovered state
// rather than zero.
func Restore(cfg Config, tbl *table.Table, ssd *storage.Volume, oracle *Oracle,
	logger RedoLogger, alloc RunAllocator, tableID uint32, runs []RunMeta,
	prebuilt map[int64]PrebuiltRun, pending []update.Record, redoMigration []int64,
	at sim.Time, m *StoreMetrics) (*Store, sim.Time, error) {

	s, err := NewStoreShared(cfg, tbl, ssd, oracle, logger, alloc, tableID, m)
	if err != nil {
		return nil, at, err
	}
	// Rebuild runs in creation (ID) order, which is also time order.
	sorted := append([]RunMeta(nil), runs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].RunID < sorted[j].RunID })
	var maxTS int64
	for _, rm := range sorted {
		if rm.Format != runfile.FormatVersion {
			return nil, at, fmt.Errorf("masm: restore run %d: run format version %d unsupported (this build reads %d)",
				rm.RunID, rm.Format, runfile.FormatVersion)
		}
		var run *runfile.Run
		if pb, ok := prebuilt[rm.RunID]; ok {
			if pb.Err != nil {
				return nil, at, fmt.Errorf("masm: restore run %d: %w", rm.RunID, pb.Err)
			}
			end, cerr := runfile.ChargeSpans(ssd, at, pb.Spans)
			if cerr != nil {
				return nil, at, fmt.Errorf("masm: restore run %d: %w", rm.RunID, cerr)
			}
			run, at = pb.Run, end
		} else {
			// The persisted block reconstructs the index and metadata
			// without decoding records; the data bytes are swept for their
			// checksum, so corruption still fails recovery.
			var end sim.Time
			run, end, err = runfile.LoadIndex(ssd, rm.Off, rm.Size, rm.IndexSize,
				at, rm.RunID, rm.Passes, rm.CRC, cfg.Run)
			if err != nil {
				return nil, at, fmt.Errorf("masm: restore run %d: %w", rm.RunID, err)
			}
			at = end
		}
		run.Table = s.tableID
		s.extents[rm.RunID] = extent{off: rm.Off, size: roundUp(rm.Size+rm.IndexSize, int64(cfg.SSDPage))}
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
				return nil, at, err
			}
			at = end
		}
	}
	s.m.MemtableBytes.Set(int64(s.buf.Bytes()))
	oracle.AdvanceTo(maxTS)
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
			return nil, at, fmt.Errorf("masm: redo migration: %w", err)
		}
		at = end
	}
	return s, at, nil
}
