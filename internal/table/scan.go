package table

import (
	"slices"
	"sort"

	"masm/internal/sim"
	"masm/internal/update"
)

// Scanner is the Table_range_scan operator (paper §3.2): it returns the
// records of [begin, end] in key order, reading the underlying pages with
// large sequential I/Os whenever pages are contiguous on disk. It carries
// its own virtual-time cursor, so a measurement can interleave it with
// other simulated actors.
//
// The scanner consults the live page index at each batch rather than
// snapshotting it, and enforces strictly increasing keys. This makes it
// robust to a concurrent shadow-paged migration flipping refs under it:
// each batch reads whichever physical slots the refs name at that moment
// (old pages until the flip, shadow pages after — both complete states),
// an overflow ref inserted behind the cursor only holds keys the scanner
// already returned (filtered by the key cursor), and one inserted ahead
// is simply visited in key order. For a view frozen at one instant, use
// SnapshotRefs.
type Scanner struct {
	t          *Table
	begin, end uint64
	// pred is an optional pushdown predicate: page refs whose key span
	// cannot contain a matching key are never read (their device I/O is
	// never issued), and rows failing it are dropped before the merge.
	pred         *update.Pred
	skippedPages int64
	filtered     int64
	// curFirstKey is the firstKey of the last page batch visited; the
	// next batch starts at the first page with a strictly larger
	// firstKey. started tracks whether any batch was visited.
	curFirstKey uint64
	startedPage bool
	// nextKey is the lower bound (inclusive) on keys still to return.
	nextKey uint64

	// The current batch: refs names its pages, buf holds their images and
	// pages their decoded form, whose bodies alias buf. All three are reused
	// by every batch, so a returned row's body is valid only until the next
	// call to Next.
	refs    []pageRef
	buf     []byte
	pages   []Page
	pageIdx int
	recIdx  int
	done    bool

	now sim.Time
	err error
}

// NewScanner starts a range scan of [begin, end] at virtual time at.
func (t *Table) NewScanner(at sim.Time, begin, end uint64) *Scanner {
	return t.NewScannerPred(at, begin, end, nil)
}

// NewScannerPred is NewScanner with a pushdown predicate (nil means
// unpredicated, exactly NewScanner).
func (t *Table) NewScannerPred(at sim.Time, begin, end uint64, pred *update.Pred) *Scanner {
	return &Scanner{
		t:       t,
		begin:   begin,
		end:     end,
		pred:    pred,
		nextKey: begin,
		now:     at,
	}
}

// Stats returns how many pages the predicate skipped (reads never issued)
// and how many decoded rows it filtered.
func (s *Scanner) Stats() (pagesSkipped, rowsFiltered int64) {
	return s.skippedPages, s.filtered
}

// Time returns the scanner's local virtual time.
func (s *Scanner) Time() sim.Time { return s.now }

// Err returns the first error encountered.
func (s *Scanner) Err() error { return s.err }

// nextBatchRefs picks the next disk-contiguous batch of page refs from the
// live index, strictly after curFirstKey in key order and within the scan
// range, into s.refs.
func (s *Scanner) nextBatchRefs(pagesPerIO int) []pageRef {
	s.t.mu.RLock()
	defer s.t.mu.RUnlock()
	refs := s.t.refs
	var lo int
	if !s.startedPage {
		lo = s.t.refIndexForKey(s.begin)
	} else {
		lo = sort.Search(len(refs), func(i int) bool { return refs[i].firstKey > s.curFirstKey })
	}
	// Pages are ordered by firstKey, so ref i's keys lie in
	// [refs[i].firstKey, refs[i+1].firstKey): a page whose span cannot
	// contain a predicate match is skipped without ever issuing its read.
	span := func(i int) (uint64, uint64) {
		hi := ^uint64(0)
		if i+1 < len(refs) {
			hi = refs[i+1].firstKey - 1
		}
		return refs[i].firstKey, hi
	}
	if s.pred != nil {
		for lo < len(refs) && refs[lo].firstKey <= s.end {
			plo, phi := span(lo)
			if s.pred.Overlaps(plo, phi) {
				break
			}
			s.skippedPages++
			s.curFirstKey = refs[lo].firstKey
			s.startedPage = true
			lo++
		}
	}
	if lo >= len(refs) || refs[lo].firstKey > s.end {
		return nil
	}
	n := 1
	for lo+n < len(refs) && n < pagesPerIO &&
		refs[lo+n].pageNo == refs[lo+n-1].pageNo+1 &&
		refs[lo+n].firstKey <= s.end {
		if s.pred != nil {
			// End the batch before a non-matching page; the next batch's
			// skip loop hops over it.
			plo, phi := span(lo + n)
			if !s.pred.Overlaps(plo, phi) {
				break
			}
		}
		n++
	}
	s.refs = append(s.refs[:0], refs[lo:lo+n]...)
	return s.refs
}

// fetchBatch reads the next maximal contiguous run of pages, capped at the
// scan I/O size, into the scanner's buffer and decodes them in place,
// overwriting the previous batch.
func (s *Scanner) fetchBatch() bool {
	s.pages, s.pageIdx, s.recIdx = s.pages[:0], 0, 0
	if s.err != nil || s.done {
		return false
	}
	batch := s.nextBatchRefs(s.t.cfg.ScanIO / s.t.cfg.PageSize)
	if len(batch) == 0 {
		s.done = true
		return false
	}
	ps := s.t.cfg.PageSize
	if cap(s.buf) < len(batch)*ps {
		s.buf = make([]byte, len(batch)*ps)
	}
	buf := s.buf[:len(batch)*ps]
	c, err := s.t.vol.ReadAt(s.now, buf, batch[0].pageNo*int64(ps))
	if err != nil {
		s.err = err
		return false
	}
	s.now = c.End
	// Reslicing within capacity keeps each Page's key and body slices for
	// decodePageInto to reuse.
	pages := slices.Grow(s.pages, len(batch))[:len(batch)]
	for i := range pages {
		if err := decodePageInto(&pages[i], buf[i*ps:(i+1)*ps]); err != nil {
			s.err = err
			return false
		}
	}
	s.pages = pages
	s.curFirstKey = batch[len(batch)-1].firstKey
	s.startedPage = true
	return true
}

// Next returns the next row in the range, or ok=false at the end. The
// row's body aliases the scanner's read buffer, which the next call may
// overwrite: a caller must finish with (or copy) a body before calling
// Next again. The merge operators (masm.Query, lsm, iu) hold at most one
// row of lookahead and call Next only once that row has been returned.
func (s *Scanner) Next() (Row, bool) {
	for {
		if s.pageIdx < len(s.pages) {
			p := &s.pages[s.pageIdx]
			for s.recIdx < len(p.Keys) {
				i := s.recIdx
				s.recIdx++
				k := p.Keys[i]
				if k < s.nextKey {
					continue
				}
				if k > s.end {
					// Keys beyond the range can still be followed by
					// in-range keys on later pages only if this page
					// ends the range; stop here.
					s.done = true
					return Row{}, false
				}
				if s.pred != nil && !s.pred.Match(k) {
					s.filtered++
					s.nextKey = k + 1
					continue
				}
				s.nextKey = k + 1
				return Row{Key: k, Body: p.Bodies[i], PageTS: p.TS}, true
			}
			s.pageIdx++
			s.recIdx = 0
			continue
		}
		if !s.fetchBatch() {
			return Row{}, false
		}
	}
}

// AddOverflow allocates an overflow page holding p (already split to fit),
// writes it, links it into key order, and returns the completion time.
func (t *Table) AddOverflow(at sim.Time, p *Page) (sim.Time, error) {
	t.mu.Lock()
	pageNo := t.allocOverflow(p.Keys[0])
	t.mu.Unlock()
	c, err := t.writePage(at, pageNo, p)
	if err != nil {
		return at, err
	}
	return c.End, nil
}

// AdjustRows records a net change in row count after migration applies
// inserts/deletes.
func (t *Table) AdjustRows(delta int64) {
	t.mu.Lock()
	t.rows += delta
	t.mu.Unlock()
}
