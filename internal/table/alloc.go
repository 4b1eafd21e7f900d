package table

import (
	"fmt"
	"sort"
)

// Shadow-paging slot allocator. The refs array is the authoritative
// logical→physical page mapping; every slot below the allocation cursor
// nextPage is, at all times, in exactly one of four states:
//
//	live     — named by a ref; holds committed (or committing) page data
//	free     — reusable now: no ref and no durable manifest names it
//	retired  — unlinked by a migration's ref flip, but possibly still
//	           named by the last durable MANIFEST; reusable only after
//	           the next committed checkpoint (ReclaimRetired)
//	in-flight— allocated by a migration batch whose ref flip has not
//	           happened yet
//
// Migration writes modified pages to freshly allocated slots and flips
// the refs of a batch (bases plus their overflow pages) in one critical
// section, so any observer — a concurrent scan, or the manifest writer
// running inside a WAL checkpoint hook — sees either the complete old
// batch or the complete new one. The durable commit point is the
// MANIFEST tmp+rename; the migration driver calls ReclaimRetired only
// after the checkpoint that wrote the flipped refs has succeeded.
//
// The free set is deliberately not persisted: Restore rederives it as
// the complement of the manifest's refs below the cursor, so a crash at
// any point of a migration can leak no slots by construction.

// allocRun allocates n physically contiguous slots: first fit from the
// free list, else by bumping the allocation cursor. The slots are marked
// in-flight until commitShadowBatch links them or releaseInflight
// returns them.
func (t *Table) allocRun(n int) (int64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	run := 0
	for i := 0; i < len(t.free); i++ {
		if run > 0 && t.free[i] == t.free[i-1]+1 {
			run++
		} else {
			run = 1
		}
		if run == n {
			start := i - n + 1
			first := t.free[start]
			t.free = append(t.free[:start], t.free[start+n:]...)
			t.noteInflightLocked(first, n)
			return first, nil
		}
	}
	if (t.nextPage+int64(n))*int64(t.cfg.PageSize) > t.vol.Size() {
		return 0, fmt.Errorf("table: data volume full: %d pages allocated, %d more needed, volume holds %d",
			t.nextPage, n, t.vol.Size()/int64(t.cfg.PageSize))
	}
	first := t.nextPage
	t.nextPage += int64(n)
	t.noteInflightLocked(first, n)
	return first, nil
}

func (t *Table) noteInflightLocked(first int64, n int) {
	if t.inflight == nil {
		t.inflight = make(map[int64]bool, n)
	}
	for j := 0; j < n; j++ {
		t.inflight[first+int64(j)] = true
	}
}

// releaseInflight returns allocated-but-never-linked slots to the free
// list — the unwind of a migration batch that failed between allocation
// and its ref flip. Slots already linked (no longer in-flight) are left
// alone.
func (t *Table) releaseInflight(slots []int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	changed := false
	for _, s := range slots {
		if t.inflight[s] {
			delete(t.inflight, s)
			t.free = append(t.free, s)
			changed = true
		}
	}
	if changed {
		sortSlots(t.free)
	}
}

// shadowOverflow links one freshly written overflow page into key order
// at commit.
type shadowOverflow struct {
	firstKey uint64
	pageNo   int64
}

// commitShadowBatch atomically re-points a batch's refs at their shadow
// slots and links the batch's overflow pages, retiring the replaced
// slots. old holds the batch's pre-migration refs in key order; the
// shadow copies sit at shadowFirst+0..len(old)-1. This is the ONLY
// mutation migration makes to the ref table, and it is all-or-nothing
// under the table latch: a manifest capture (another table's checkpoint
// hook) or a concurrent scan can never observe a stamped base page
// without the overflow refs that carry its spilled rows.
func (t *Table) commitShadowBatch(old []pageRef, shadowFirst int64, ovfs []shadowOverflow) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for j, r := range old {
		i := sort.Search(len(t.refs), func(i int) bool { return t.refs[i].firstKey >= r.firstKey })
		if i >= len(t.refs) || t.refs[i].firstKey != r.firstKey || t.refs[i].pageNo != r.pageNo {
			return fmt.Errorf("table: shadow commit: ref (key %d, page %d) moved underneath the migration", r.firstKey, r.pageNo)
		}
		t.refs[i].pageNo = shadowFirst + int64(j)
		delete(t.inflight, shadowFirst+int64(j))
		t.retired = append(t.retired, r.pageNo)
	}
	for _, o := range ovfs {
		i := sort.Search(len(t.refs), func(i int) bool { return t.refs[i].firstKey > o.firstKey })
		t.refs = append(t.refs, pageRef{})
		copy(t.refs[i+1:], t.refs[i:])
		t.refs[i] = pageRef{firstKey: o.firstKey, pageNo: o.pageNo}
		delete(t.inflight, o.pageNo)
	}
	return nil
}

// ReclaimRetired moves retired slots to the free list — called by the
// migration driver once a durable commit (the MANIFEST rewrite inside
// the migration's closing checkpoint) no longer names them. Retired
// slots of an aborted migration simply stay retired until the table's
// next successful commit.
func (t *Table) ReclaimRetired() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.retired) == 0 {
		return
	}
	t.free = append(t.free, t.retired...)
	t.retired = t.retired[:0]
	sortSlots(t.free)
}

// SlotCounts reports the slot ledger: live (ref-named), free and retired
// slots, and the allocation cursor. At a quiescent point (no migration
// batch in flight) live+free+retired equals next. Observability reads the
// retired count into a gauge after each migration's reclaim point.
func (t *Table) SlotCounts() (live, free, retired, next int64) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return int64(len(t.refs)), int64(len(t.free)), int64(len(t.retired)), t.nextPage
}

// NoteMigTS records the timestamp of a migration pass over this table —
// the shadow-commit stamp the manifest persists (and recovery feeds back
// to the oracle), recorded before any page can carry it. Recovery calls
// it with the persisted stamp so a restored table never regresses it.
func (t *Table) NoteMigTS(migTS int64) {
	t.mu.Lock()
	if migTS > t.migTS {
		t.migTS = migTS
	}
	t.mu.Unlock()
}

// LastMigTS returns the newest migration timestamp that may be stamped
// on this table's pages.
func (t *Table) LastMigTS() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.migTS
}

// CheckSlotInvariants verifies the allocator's ground truth: the live,
// free, retired and in-flight sets are pairwise disjoint (in particular,
// no live ref points at a reclaimed slot), every slot below the cursor is
// in exactly one of them, and the cursor fits the volume.
func (t *Table) CheckSlotInvariants() error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	seen := make(map[int64]string, t.nextPage)
	note := func(slot int64, pool string) error {
		if slot < 0 || slot >= t.nextPage {
			return fmt.Errorf("table: %s slot %d outside [0,%d)", pool, slot, t.nextPage)
		}
		if prev, ok := seen[slot]; ok {
			return fmt.Errorf("table: slot %d in both %s and %s", slot, prev, pool)
		}
		seen[slot] = pool
		return nil
	}
	for _, r := range t.refs {
		if err := note(r.pageNo, "live"); err != nil {
			return err
		}
	}
	for _, s := range t.free {
		if err := note(s, "free"); err != nil {
			return err
		}
	}
	for _, s := range t.retired {
		if err := note(s, "retired"); err != nil {
			return err
		}
	}
	for s := range t.inflight {
		if err := note(s, "in-flight"); err != nil {
			return err
		}
	}
	if int64(len(seen)) != t.nextPage {
		return fmt.Errorf("table: %d of %d slots accounted for (slots leaked)", len(seen), t.nextPage)
	}
	if t.nextPage*int64(t.cfg.PageSize) > t.vol.Size() {
		return fmt.Errorf("table: cursor %d pages exceeds volume size %d", t.nextPage, t.vol.Size())
	}
	return nil
}

func sortSlots(s []int64) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}
