package table

import (
	"fmt"
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
	// valid only until the next call to Peek, Next or EachTo. batch is the
	// current batch's page images, walked in place as Lookup walks one:
	// page is the index of the page being walked, off the offset of its
	// next record, left how many records it has left and ts its
	// timestamp.
	bufs  *scanBufs
	batch []byte
	page  int
	off   int
	left  int
	ts    int64
	done  bool
	// ready marks the row at off as peeked: in range, past the key cursor
	// and matching the predicate. key and body are its key and body.
	ready bool
	key   uint64
	body  []byte

	now sim.Time
	err error
}

// scanBufs is one scanner's batch memory: the batch's page refs and the
// images read (ScanIO bytes). A scanner draws it from scanBufPool at its
// first batch and Release hands it back, so back-to-back scans reuse one
// buffer.
type scanBufs struct {
	refs []pageRef
	buf  []byte
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
// scan I/O size, into the scanner's buffer, overwriting the previous
// batch. The pages are walked in place, each header as the walk enters
// its page (nextPage).
func (s *Scanner) fetchBatch() bool {
	s.batch, s.page, s.left = nil, -1, 0
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
	s.batch = buf
	s.curFirstKey = batch[len(batch)-1].firstKey
	s.startedPage = true
	return true
}

// nextPage moves the walk to the batch's next page and reads its header.
// It reports false at the end of the batch, or on a bad header (see Err).
func (s *Scanner) nextPage() bool {
	ps := s.t.cfg.PageSize
	if (s.page+2)*ps > len(s.batch) {
		return false
	}
	s.page++
	ts, n, err := pageHeader(s.batch[s.page*ps : (s.page+1)*ps])
	if err != nil {
		s.err = err
		return false
	}
	s.ts, s.off, s.left = ts, pageHeaderSize, n
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
	s.off += recHeaderSize + len(s.body)
	s.left--
	s.nextKey = s.key + 1
	s.ready = false
	return Row{Key: s.key, Body: s.body, PageTS: s.ts}
}

// EachTo hands fn, in key order, every remaining row of the range with
// key at most hi, straight from the page it walks: the merged scan's
// inner loop (masm.Query.Each), which calls it once per update group with
// hi just below the group's key. It returns how many rows fn was handed
// and their body bytes, and more=false if fn stopped it by returning
// false (that row is consumed). Otherwise it stops on the first row past
// hi, left peeked (Peek, Key and Take see it), or at the end of the range
// or on an error (see Err). A nil fn is handed nothing: EachTo then only
// peeks the next row, as Peek does. A body aliases the read buffer: fn
// must finish with it before returning, since the next batch is read only
// after fn has returned for the last row of this one. A record cut off by
// its page's end stops the walk there with an error (see Err), after the
// rows before it.
func (s *Scanner) EachTo(hi uint64, fn func(key uint64, body []byte) bool) (rows, bytes int64, more bool) {
	s.ready = false
	next, end, pred := s.nextKey, s.end, s.pred
	ps := s.t.cfg.PageSize
	for {
		for s.left > 0 || s.nextPage() {
			pg := s.batch[s.page*ps : (s.page+1)*ps]
			off, left := s.off, s.left
			for ; left > 0; left-- {
				k, body, nx := pageRecord(pg, off)
				if nx < 0 {
					_, n, _ := pageHeader(pg)
					s.err = fmt.Errorf("table: truncated record %d of %d", n-left, n)
					s.nextKey = next
					return rows, bytes, true
				}
				if k < next {
					off = nx
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
					next, off = k+1, nx
					continue
				}
				if k > hi || fn == nil {
					s.off, s.left, s.nextKey = off, left, next
					s.key, s.body, s.ready = k, body, true
					return rows, bytes, true
				}
				next, off = k+1, nx
				rows++
				bytes += int64(len(body))
				if !fn(k, body) {
					s.off, s.left, s.nextKey = off, left-1, next
					return rows, bytes, false
				}
			}
			s.left = 0
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
	s.batch, s.left = nil, 0
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
