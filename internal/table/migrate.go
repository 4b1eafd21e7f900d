package table

import (
	"fmt"

	"masm/internal/sim"
	"masm/internal/storage"
	"masm/internal/update"
)

// migrateUpdateBatch is the number of update records ApplyStream pulls
// from its source per refill.
const migrateUpdateBatch = 256

// ApplyResult summarizes one migration pass over the table.
type ApplyResult struct {
	PagesRead      int64
	PagesWritten   int64
	OverflowPages  int64
	RecordsApplied int64
	RowDelta       int64 // net inserts minus deletes
}

// ApplyStream is the table side of MaSM's migration (paper §3.2): a table
// scan where each data page is merged with the cached updates covering its
// key range. Pages are processed in batches of up to batchBytes of
// disk-contiguous pages, so the disk alternates large sequential reads and
// large sequential writes — the pattern behind the paper's ≈2.3× migration
// cost relative to a pure scan (Fig 11).
//
// Rewritten batches are shadow-paged: the merged pages, and the overflow
// pages their splits spill into, go to freshly allocated slots, and the
// batch's refs flip to the new slots in one critical section once every
// byte of the batch is written. The old pages are never touched, so a
// crash at any point of the migration — regardless of which individual
// page writes survive — leaves recovery a consistent page set: flipped
// batches are complete (base pages and overflow together), unflipped
// batches still read the old pages and are simply re-merged by the redo.
// The replaced slots are retired and become reusable only after the
// migration driver's durable commit (Table.ReclaimRetired).
//
// src must yield update records in (key, ts) order. Updates whose
// timestamps are not newer than a page's timestamp are skipped, which
// makes re-running an interrupted migration idempotent (crash recovery,
// §3.6): a redo pass over already-flipped pages finds nothing newer and
// writes nothing at all. Records that overflow their page are split into
// overflow pages linked into the table at the batch flip.
//
// Only the pages covering [begin, end] are visited — the building block of
// incremental migration (§3.5): migrating a portion of the table range at
// a time spreads the migration cost across many operations. src must yield
// only updates with keys in the covered range.
func (t *Table) ApplyStream(at sim.Time, migTS int64, src update.Iterator, batchBytes int, begin, end uint64) (sim.Time, ApplyResult, error) {
	var res ApplyResult
	refs := t.snapshotRefs(begin, end)
	if len(refs) == 0 {
		return at, res, nil
	}
	t.NoteMigTS(migTS)
	// The exclusive upper key bound of the last covered page is the first
	// key of the next page beyond the subset (∞ when the subset reaches
	// the table end); updates up to that bound belong to the last page.
	globalBound, haveGlobalBound := t.boundAfter(refs[len(refs)-1].firstKey)
	pagesPerBatch := batchBytes / t.cfg.PageSize
	if pagesPerBatch < 1 {
		pagesPerBatch = 1
	}

	// Updates are pulled through a BatchReader window (update.FillBatch
	// drives batch-capable sources like the merge engine natively). The
	// batched lookahead only affects the consumer side: the source's own
	// device reads happen at the same points of its record stream, and
	// they are on the SSD while the page traffic below is on the data
	// disk, so simulated times are unchanged.
	rd := update.NewBatchReader(src, migrateUpdateBatch)
	nextUpd := rd.Peek
	consumeUpd := rd.Consume

	// Pages decoded from a batch alias the batch buffer, and Page.Encode
	// zeroes its destination before writing; re-encoding therefore goes
	// through a scratch page to avoid clobbering bodies that still alias
	// the batch.
	scratch := make([]byte, t.cfg.PageSize)
	// Nothing aliasing the batch buffer escapes an iteration (overflow
	// bodies are copied, the shadow writes complete before the next batch),
	// so one pooled buffer serves the whole pass and megabyte-scale scratch
	// stops churning the GC.
	batchBuf := storage.GetBuf(pagesPerBatch * t.cfg.PageSize)
	defer storage.PutBuf(batchBuf)
	now := at
	for i := 0; i < len(refs); {
		// Collect a disk-contiguous batch.
		n := 1
		for i+n < len(refs) && n < pagesPerBatch &&
			refs[i+n].pageNo == refs[i+n-1].pageNo+1 {
			n++
		}
		first := refs[i].pageNo
		buf := batchBuf[:n*t.cfg.PageSize]
		c, err := t.vol.ReadAt(now, buf, first*int64(t.cfg.PageSize))
		if err != nil {
			return now, res, err
		}
		now = c.End
		res.PagesRead += int64(n)

		dirty := false
		batchDelta := int64(0)
		var batchOvfs []*Page
		for j := 0; j < n; j++ {
			pbuf := buf[j*t.cfg.PageSize : (j+1)*t.cfg.PageSize]
			// Upper key bound of this page: the first key of the next
			// page in key order, or the bound beyond the covered subset.
			var upper uint64 = ^uint64(0)
			bounded := false
			if i+j+1 < len(refs) {
				upper = refs[i+j+1].firstKey
				bounded = true
			} else if haveGlobalBound {
				upper = globalBound
				bounded = true
			}
			// Gather this page's updates.
			var upds []update.Record
			for {
				u, ok, err := nextUpd()
				if err != nil {
					return now, res, err
				}
				if !ok || (bounded && u.Key >= upper) {
					break
				}
				consumeUpd()
				upds = append(upds, u)
			}
			if len(upds) == 0 {
				continue
			}
			p, err := DecodePage(pbuf)
			if err != nil {
				return now, res, err
			}
			if !anyNewer(upds, p.TS) {
				// Every update is already reflected in the page image (a
				// redo pass over a flipped batch): consume them without
				// rewriting the page, so re-running a committed migration
				// costs reads only.
				res.RecordsApplied += int64(len(upds))
				continue
			}
			before := len(p.Keys)
			ovfs := ApplyUpdatesToPage(p, upds, migTS, t.cfg.PageSize)
			res.RecordsApplied += int64(len(upds))
			after := len(p.Keys)
			for _, ovf := range ovfs {
				after += len(ovf.Keys)
				// The split pages' bodies alias the batch buffer, which
				// is rewritten below; own them before deferring the
				// overflow writes.
				for bi, b := range ovf.Bodies {
					ovf.Bodies[bi] = append([]byte(nil), b...)
				}
				batchOvfs = append(batchOvfs, ovf)
			}
			res.RowDelta += int64(after - before)
			batchDelta += int64(after - before)
			if err := p.Encode(scratch); err != nil {
				return now, res, err
			}
			copy(pbuf, scratch)
			dirty = true
		}
		if dirty {
			end, err := t.writeShadowBatch(now, refs[i:i+n], buf, batchOvfs, &res)
			if err != nil {
				return now, res, err
			}
			now = end
			// Flipped batches are committed even if a later batch
			// fails; keep the row count in step with them.
			t.AdjustRows(batchDelta)
		}
		i += n
	}
	// Drain any updates beyond the last page boundary (possible only when
	// the table was empty in that key region).
	for {
		u, ok, err := nextUpd()
		if err != nil {
			return now, res, err
		}
		if !ok {
			break
		}
		consumeUpd()
		_ = u
	}
	return now, res, nil
}

// anyNewer reports whether any update would survive the page-timestamp
// redo check against a page stamped pageTS.
func anyNewer(upds []update.Record, pageTS int64) bool {
	for i := range upds {
		if upds[i].TS > pageTS {
			return true
		}
	}
	return false
}

// writeShadowBatch writes a rewritten batch — n disk-contiguous base
// pages in buf plus the overflow pages their splits produced — to freshly
// allocated slots and then flips the batch's refs in one critical
// section. On any error the allocated slots return to the free list and
// the old pages remain authoritative.
//
// Every slot is allocated first; then the writes go out in one fixed
// order — the base pages as one request, then each overflow page in slot
// order — each a priced Volume.WriteAt issued at the previous one's
// completion. The flip happens only after every byte of the batch is
// written.
func (t *Table) writeShadowBatch(at sim.Time, old []pageRef, buf []byte, ovfs []*Page, res *ApplyResult) (sim.Time, error) {
	n := len(old)
	shadowFirst, err := t.allocRun(n)
	if err != nil {
		return at, err
	}
	allocated := make([]int64, 0, n+len(ovfs))
	for j := 0; j < n; j++ {
		allocated = append(allocated, shadowFirst+int64(j))
	}
	fail := func(err error) (sim.Time, error) {
		t.releaseInflight(allocated)
		return at, err
	}
	links := make([]shadowOverflow, 0, len(ovfs))
	for _, p := range ovfs {
		slot, err := t.allocRun(1)
		if err != nil {
			return fail(err)
		}
		allocated = append(allocated, slot)
		links = append(links, shadowOverflow{firstKey: p.Keys[0], pageNo: slot})
	}
	ps := int64(t.cfg.PageSize)
	c, err := t.vol.WriteAt(at, buf, shadowFirst*ps)
	if err != nil {
		return fail(err)
	}
	now := c.End
	pb := storage.GetBuf(t.cfg.PageSize)[:t.cfg.PageSize]
	defer storage.PutBuf(pb)
	for k, p := range ovfs {
		slot := links[k].pageNo
		if err := p.Encode(pb); err != nil {
			return fail(fmt.Errorf("table: page %d: %w", slot, err))
		}
		if c, err = t.vol.WriteAt(now, pb, slot*ps); err != nil {
			return fail(err)
		}
		now = c.End
	}
	res.PagesWritten += int64(n)
	res.OverflowPages += int64(len(ovfs))
	if err := t.commitShadowBatch(old, shadowFirst, links); err != nil {
		t.releaseInflight(allocated)
		return now, err
	}
	return now, nil
}
