package table

import (
	"slices"
	"sort"
	"sync"

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
// is simply visited in key order.
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

	// bufs is the batch memory (nil until the first batch), drawn from
	// scanBufPool and reused by every batch, so a returned row's body is
	// valid only until the next call to Peek, Next or EachTo. pages is the
	// current batch's decoded pages; [pageIdx, recIdx] is the next row to
	// examine.
	bufs    *scanBufs
	pages   []Page
	pageIdx int
	recIdx  int
	done    bool
	// ready marks the row at [pageIdx, recIdx] as peeked: in range, past
	// the key cursor and matching the predicate. key is its key.
	ready bool
	key   uint64

	now sim.Time
	err error
}

// scanBufs is one scanner's batch memory: the batch's page refs, the
// images read (ScanIO bytes) and their decoded pages, whose bodies alias
// buf. A scanner draws it from scanBufPool at its first batch and Release
// hands it back, so back-to-back scans reuse one buffer.
type scanBufs struct {
	refs  []pageRef
	buf   []byte
	pages []Page
}

var scanBufPool = sync.Pool{New: func() any { return new(scanBufs) }}

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
	s.bufs.refs = append(s.bufs.refs[:0], refs[lo:lo+n]...)
	return s.bufs.refs
}

// fetchBatch reads the next maximal contiguous run of pages, capped at the
// scan I/O size, into the scanner's buffer and decodes them in place,
// overwriting the previous batch.
func (s *Scanner) fetchBatch() bool {
	s.pages, s.pageIdx, s.recIdx = s.pages[:0], 0, 0
	if s.err != nil || s.done {
		return false
	}
	if s.bufs == nil {
		s.bufs = scanBufPool.Get().(*scanBufs)
	}
	b := s.bufs
	batch := s.nextBatchRefs(s.t.cfg.ScanIO / s.t.cfg.PageSize)
	if len(batch) == 0 {
		s.done = true
		return false
	}
	ps := s.t.cfg.PageSize
	if cap(b.buf) < len(batch)*ps {
		b.buf = make([]byte, len(batch)*ps)
	}
	buf := b.buf[:len(batch)*ps]
	c, err := s.t.vol.ReadAt(s.now, buf, batch[0].pageNo*int64(ps))
	if err != nil {
		s.err = err
		return false
	}
	s.now = c.End
	// Reslicing within capacity keeps each Page's key and body slices for
	// decodePageInto to reuse.
	pages := slices.Grow(b.pages[:0], len(batch))[:len(batch)]
	b.pages = pages
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

// Peek positions the scanner on the next row in the range and reports
// whether there is one (false at the end, or on an error: see Err). It
// reads the next batch only once the current one is used up, so it
// overwrites the body of a row Take returned, never of one it has not.
// Peeking again without a Take stays on the same row.
func (s *Scanner) Peek() bool {
	if !s.ready {
		s.EachTo(0, nil)
	}
	return s.ready
}

// Key returns the key of the row Peek positioned on.
func (s *Scanner) Key() uint64 { return s.key }

// Take consumes the row Peek positioned on and returns it. Its body
// aliases the scanner's read buffer, valid until the next Peek or Next;
// Take must follow a Peek that reported a row.
func (s *Scanner) Take() Row {
	p := &s.pages[s.pageIdx]
	i := s.recIdx
	s.recIdx++
	s.nextKey = s.key + 1
	s.ready = false
	return Row{Key: s.key, Body: p.Bodies[i], PageTS: p.TS}
}

// EachTo hands fn, in key order, every remaining row of the range with
// key at most hi, straight from the decoded batch: the merged scan's
// inner loop (masm.Query.Each), which calls it once per update group with
// hi just below the group's key. It returns how many rows fn was handed
// and their body bytes, and more=false if fn stopped it by returning
// false (that row is consumed). Otherwise it stops on the first row past
// hi, left peeked (Peek, Key and Take see it), or at the end of the range
// or on an error (see Err). A nil fn is handed nothing: EachTo then only
// peeks the next row, as Peek does. A body aliases the read buffer: fn
// must finish with it before returning, since the next batch is read only
// after fn has returned for the last row of this one.
func (s *Scanner) EachTo(hi uint64, fn func(key uint64, body []byte) bool) (rows, bytes int64, more bool) {
	s.ready = false
	next, end, pred := s.nextKey, s.end, s.pred
	for {
		for ; s.pageIdx < len(s.pages); s.pageIdx, s.recIdx = s.pageIdx+1, 0 {
			p := &s.pages[s.pageIdx]
			keys, bodies := p.Keys, p.Bodies
			for i := s.recIdx; i < len(keys); i++ {
				k := keys[i]
				if k < next {
					continue
				}
				if k > end {
					// Keys beyond the range can still be followed by
					// in-range keys on later pages only if this page
					// ends the range; stop here.
					s.done, s.nextKey = true, next
					return rows, bytes, true
				}
				if pred != nil && !pred.Match(k) {
					s.filtered++
					next = k + 1
					continue
				}
				if k > hi || fn == nil {
					s.recIdx, s.nextKey = i, next
					s.key, s.ready = k, true
					return rows, bytes, true
				}
				next = k + 1
				rows++
				bytes += int64(len(bodies[i]))
				if !fn(k, bodies[i]) {
					s.recIdx, s.nextKey = i+1, next
					return rows, bytes, false
				}
			}
		}
		s.nextKey = next
		if !s.fetchBatch() {
			return rows, bytes, true
		}
	}
}

// Next returns the next row in the range, or ok=false at the end: Peek
// then Take. The row's body aliases the scanner's read buffer, which the
// next call may overwrite: a caller must finish with (or copy) a body
// before calling Next again. The baseline merge operators (lsm, iu) call
// Next only once the row before has been returned.
func (s *Scanner) Next() (Row, bool) {
	if !s.Peek() {
		return Row{}, false
	}
	return s.Take(), true
}

// Release returns the scanner's batch memory to the pool, ending the
// scan: no row it returned may be used afterwards, and Peek and Next
// report the end. A scanner that is never released simply leaves its
// memory to the collector.
func (s *Scanner) Release() {
	s.done, s.ready = true, false
	s.pages = nil
	if s.bufs != nil {
		scanBufPool.Put(s.bufs)
		s.bufs = nil
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
