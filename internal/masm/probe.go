package masm

import (
	"fmt"
	"sort"
)

// CheckInvariants verifies the store's internal accounting under the
// latch and returns the total extent bytes the store currently holds on
// the SSD volume (live runs plus dead-parked ones), so a multi-table
// engine can cross-check the shared allocator's per-table ledger. It is
// the chaos/model-checking probe: cheap enough to run between operations,
// strict enough that a broken flush/merge/migration unwind shows up as a
// hard error instead of a slow leak.
//
// Invariants checked:
//
//   - runBytes equals the summed Size of the live runs;
//   - every live run and every dead-parked run owns exactly one extent,
//     the extent lies inside the SSD volume, and the run's data fits it;
//   - no two extents overlap (one table's runs never alias);
//   - dead runs are parked only while pinned, and no pin count is
//     negative;
//   - the in-memory buffer's occupancy is non-negative and run IDs are
//     below the next-ID watermark;
//   - the table's shadow-paging slot ledger is sound: the live, free,
//     retired and in-flight slot sets are pairwise disjoint (no
//     live ref points at a reclaimed slot) and together account for every
//     allocated slot.
func (s *Store) CheckInvariants() (extentBytes int64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	owner := make(map[int64]string, len(s.extents))
	var runBytes int64
	for _, r := range s.runs {
		runBytes += r.Size
		if r.ID >= s.nextRunID {
			return 0, fmt.Errorf("masm: table %d: live run %d at or above next run id %d", s.TableID(), r.ID, s.nextRunID)
		}
		if _, dup := owner[r.ID]; dup {
			return 0, fmt.Errorf("masm: table %d: run %d appears twice in the live set", s.TableID(), r.ID)
		}
		e, ok := s.extents[r.ID]
		if !ok {
			return 0, fmt.Errorf("masm: table %d: live run %d has no extent", s.TableID(), r.ID)
		}
		if r.Size > e.size {
			return 0, fmt.Errorf("masm: table %d: run %d holds %d bytes in a %d-byte extent", s.TableID(), r.ID, r.Size, e.size)
		}
		owner[r.ID] = "live"
	}
	if runBytes != s.runBytes {
		return 0, fmt.Errorf("masm: table %d: runBytes counter %d but live runs sum to %d", s.TableID(), s.runBytes, runBytes)
	}
	for id := range s.dead {
		if s.pins[id] <= 0 {
			return 0, fmt.Errorf("masm: table %d: dead run %d parked without pins", s.TableID(), id)
		}
		if owner[id] == "live" {
			return 0, fmt.Errorf("masm: table %d: run %d is both live and dead", s.TableID(), id)
		}
		if _, ok := s.extents[id]; !ok {
			return 0, fmt.Errorf("masm: table %d: dead run %d has no extent", s.TableID(), id)
		}
		owner[id] = "dead"
	}
	for id, n := range s.pins {
		if n < 0 {
			return 0, fmt.Errorf("masm: table %d: run %d pin count %d negative", s.TableID(), id, n)
		}
	}

	exts := make([]extent, 0, len(s.extents))
	for id, e := range s.extents {
		if owner[id] == "" {
			return 0, fmt.Errorf("masm: table %d: extent [%d,+%d) belongs to no live or dead run (id %d)", s.TableID(), e.off, e.size, id)
		}
		if e.off < 0 || e.size <= 0 || e.off+e.size > s.ssd.Size() {
			return 0, fmt.Errorf("masm: table %d: extent [%d,+%d) outside the %d-byte SSD volume", s.TableID(), e.off, e.size, s.ssd.Size())
		}
		extentBytes += e.size
		exts = append(exts, e)
	}
	sort.Slice(exts, func(i, j int) bool { return exts[i].off < exts[j].off })
	for i := 1; i < len(exts); i++ {
		if exts[i-1].off+exts[i-1].size > exts[i].off {
			return 0, fmt.Errorf("masm: table %d: extents [%d,+%d) and [%d,+%d) overlap",
				s.TableID(), exts[i-1].off, exts[i-1].size, exts[i].off, exts[i].size)
		}
	}
	if s.buf.Bytes() < 0 {
		return 0, fmt.Errorf("masm: table %d: negative buffer occupancy %d", s.TableID(), s.buf.Bytes())
	}
	if err := s.tbl.CheckSlotInvariants(); err != nil {
		return 0, fmt.Errorf("masm: table %d: %w", s.TableID(), err)
	}
	return extentBytes, nil
}
