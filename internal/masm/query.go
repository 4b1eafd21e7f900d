package masm

import (
	"sync"

	"masm/internal/extsort"
	"masm/internal/memtable"
	"masm/internal/runfile"
	"masm/internal/sim"
	"masm/internal/table"
	"masm/internal/update"
)

// Query is a table range scan with online updates merged in: the paper's
// replacement for the plain Table_range_scan operator (§3.2). It is an
// operator tree whose root pushes rows to the consumer (Each) rather than
// being pulled one row at a time:
//
//	Merge_data_updates
//	├── Table_range_scan            (disk, large sequential I/Os)
//	└── Merge_updates               (k-way merge + same-key combining)
//	    ├── Run_scan × (number of materialized sorted runs)   (SSD)
//	    └── the buffer copy         (in-memory buffer, taken at setup)
//
// The paper's Mem_scan reads the buffer in place; here setup copies the
// buffered records the query may see in the same latch hold that pins its
// runs, so no later flush, merge or migration can change what it reads.
// Disk and SSD children advance independent virtual-time cursors, so their
// I/O overlaps exactly as the paper's asynchronous I/O does; the query's
// completion time is the maximum across children plus injected CPU time.
// Each is the one merge loop; every consumer (Table.Scan and the server's
// scans, Table.Query's pipeline, a transaction's overlay, the paper
// experiments' Drain) is a callback on it.
type Query struct {
	s  *Store
	ts int64
	// pred is the pushdown predicate (nil for an unpredicated scan): the
	// same normalized key-range predicate is applied below the merge by
	// the data scan, every run scan, and the buffer copy, so excluded
	// records never enter the merge at all.
	pred *update.Pred

	data     *table.Scanner
	runScans []*runfile.Scanner
	runBufs  *runBufs        // runScans' read buffers, recycled in Each
	merger   *extsort.Merger // over runScans + the buffer copy; feeds upd
	upd      *update.BatchReader
	// memFiltered counts the buffered records the predicate dropped from
	// the copy.
	memFiltered int64

	// CPUPerRecord injects per-output-record CPU cost, modelling complex
	// query processing above the scan (paper Fig 13).
	CPUPerRecord sim.Duration

	start       sim.Time
	cpu         sim.Duration
	pinnedRuns  []int64
	pinnedPages int
	closed      bool
	err         error

	// fold is the update-group fold; its scratch body, which a modify
	// patches, is the query's own and reused by every row.
	fold rowFold

	// rowBytes accumulates the body bytes of every row returned; observed
	// into the scan-bytes histogram when the query closes.
	rowBytes int64
}

// updateBatch is the number of merged update records the query pulls from
// Merge_updates per refill.
const updateBatch = 256

// runBufRound is the unit run-read buffers are sized in: a new buffer
// holds what it is drawn for and up to runBufRound more, so a read of one
// size fits the buffer of another whatever partial record either carries
// in front of it.
const runBufRound = 4 << 10

// runBufs recycles one query's run-read buffers (runfile.Bufs). A run
// scanner retires a buffer when it moves to the next, but the records
// decoded from it may still sit in the update window (upd) or in the
// fold's body, or be the row in fn's hands. So a retired buffer is tagged
// with the window of upd it was retired in, and Each frees it only at a
// safe point — between update groups, after fn has returned — once upd
// has refilled past that window: every record of the window has then been
// consumed, folded and handed on. A buffer no record was handed out from
// is free at once. Freed buffers are reused while the query runs; Close
// frees them all, and returns the runBufs with them to runBufsPool for
// the next query. Buffers are sized to the reads (a range's tail in each
// run is often one granule), and a query owns no more of them than it has
// held at once.
type runBufs struct {
	upd     *update.BatchReader // nil until the query's reader exists
	free    [][]byte
	retired []retiredBuf // in retirement order, so by window
	held    int          // buffers handed out and not yet free again
}

// retiredBuf is a buffer waiting for window to be consumed.
type retiredBuf struct {
	buf    []byte
	window uint64
}

var runBufsPool = sync.Pool{New: func() any { return new(runBufs) }}

// poisonFreed makes runBufs overwrite every buffer it frees, so a record
// still read after its buffer was freed shows at once; tests set it.
var poisonFreed bool

// Get implements runfile.Bufs: the smallest free buffer that fits, or a
// new one, for which the smallest free buffer (too small for this read)
// is dropped.
func (b *runBufs) Get(n int) []byte {
	b.held++
	fit, small := -1, -1
	for i, buf := range b.free {
		if c := cap(buf); c >= n && (fit < 0 || c < cap(b.free[fit])) {
			fit = i
		} else if c < n && (small < 0 || c < cap(b.free[small])) {
			small = i
		}
	}
	if fit < 0 && small >= 0 {
		b.take(small)
	}
	if fit < 0 {
		return make([]byte, 0, (n/runBufRound+1)*runBufRound)
	}
	return b.take(fit)
}

// take removes free buffer i and returns it.
func (b *runBufs) take(i int) []byte {
	k := len(b.free) - 1
	buf := b.free[i]
	b.free[i], b.free[k] = b.free[k], nil
	b.free = b.free[:k]
	return buf
}

// Retire implements runfile.Bufs.
func (b *runBufs) Retire(buf []byte, used bool) {
	if !used {
		b.put(buf)
		return
	}
	var w uint64
	if b.upd != nil {
		w = b.upd.Window()
	}
	b.retired = append(b.retired, retiredBuf{buf, w})
}

// put frees buf.
func (b *runBufs) put(buf []byte) {
	b.held--
	buf = buf[:cap(buf)]
	if poisonFreed {
		for i := range buf {
			buf[i] = 0xA5
		}
	}
	b.free = append(b.free, buf[:0])
}

// recycle frees the retired buffers whose window upd has refilled past.
// Each calls it only at a safe point.
func (b *runBufs) recycle() {
	if len(b.retired) > 0 && b.retired[0].window < b.upd.Window() {
		b.freeRetired()
	}
}

// freeRetired is recycle's slow path.
func (b *runBufs) freeRetired() {
	w, i := b.upd.Window(), 0
	for ; i < len(b.retired) && b.retired[i].window < w; i++ {
		b.put(b.retired[i].buf)
	}
	n := copy(b.retired, b.retired[i:])
	clear(b.retired[n:])
	b.retired = b.retired[:n]
}

// release frees every retired buffer and returns b to runBufsPool: the
// query has closed, and its run scanners have retired their last buffers.
func (b *runBufs) release() {
	for _, r := range b.retired {
		b.put(r.buf)
	}
	clear(b.retired)
	b.retired, b.upd, b.held = b.retired[:0], nil, 0
	runBufsPool.Put(b)
}

// NewQuery performs the table-range-scan setup of Fig 8 and returns the
// operator tree. It assigns the query a fresh timestamp, flushes the
// update buffer if it holds at least S pages, and merges the earliest
// 1-pass runs while more runs exist than query memory pages. The
// timestamp is issued under the store latch, atomically with the query's
// reader registration, so a concurrent migration can never slip between
// the two and bake newer updates into pages this query will read.
//
// A non-nil pred pushes a key predicate down: zone maps prune run
// granules (and the data scan prunes pages) whose key spans cannot match,
// and surviving sources filter records below the merge.
func (s *Store) NewQuery(at sim.Time, begin, end uint64, pred *update.Pred) (*Query, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.newQueryLocked(at, begin, end, s.oracle.Next(), pred)
}

// newQueryLocked is the table-range-scan setup at timestamp qts. Caller
// holds s.mu.
func (s *Store) newQueryLocked(at sim.Time, begin, end uint64, qts int64, pred *update.Pred) (*Query, error) {
	// Fig 8 lines 1–4: materialize a run if the buffer holds ≥ S pages.
	// The flush and the merges below are memory-budget optimizations, not
	// correctness requirements: when they fail (typically an exhausted
	// extent allocator while migration is held off by readers), the query
	// proceeds against the unflushed buffer and the larger run set, so
	// reads stay available under cache pressure; a failed flush restores
	// its records to the buffer.
	if s.buf.Bytes() >= s.cfg.SPages()*s.cfg.SSDPage {
		if t, err := s.flushLocked(at, memtable.MaxDrain); err == nil {
			at = t
		}
	}
	// Fig 8 lines 5–8: bound run count by the available query pages. While
	// a migration is in flight the merge is skipped: the earliest runs are
	// exactly the ones the migration is reading and about to delete, so
	// merging them would waste SSD writes (the paper's migration thread is
	// the only other writer of the run set).
	for len(s.runs) > s.cfg.QueryPages() && !s.migrating {
		n := s.cfg.NMerge()
		if avail := s.onePassCountLocked(); avail >= 2 && n > avail {
			n = avail
		}
		if len(s.runs) < n {
			n = len(s.runs)
		}
		t, err := s.mergeRunsLocked(at, n)
		if err != nil {
			break
		}
		at = t
	}

	q := &Query{
		s:     s,
		ts:    qts,
		pred:  pred,
		start: at,
		data:  s.tbl.NewScannerPred(at, begin, end, pred),
	}
	iters := make([]update.Iterator, 0, len(s.runs)+1)
	q.pinnedRuns = make([]int64, 0, len(s.runs))
	q.runBufs = runBufsPool.Get().(*runBufs)
	for _, r := range s.runs {
		sc := r.ScanPred(at, begin, end, qts, s.cfg.ScanGranularity, pred)
		sc.UseBufs(q.runBufs)
		q.runScans = append(q.runScans, sc)
		iters = append(iters, sc)
		s.pins[r.ID]++
		q.pinnedRuns = append(q.pinnedRuns, r.ID)
	}
	// The buffer copy goes last, as the paper's Mem_scan does, so equal
	// keys tie-break in the same source order.
	mem, filtered := s.buf.AppendRange(nil, begin, end, qts, pred)
	q.memFiltered = filtered
	iters = append(iters, update.NewSliceIterator(mem))
	merger, err := extsort.NewMerger(iters...)
	if err != nil {
		// The query never registers, so Close cannot run: drop the run
		// pins taken above or the runs' extents leak when later retired.
		for _, id := range q.pinnedRuns {
			s.unpinRunLocked(id)
		}
		q.releaseRunBufs()
		return nil, err
	}
	q.merger = merger
	q.upd = update.NewBatchReader(merger, updateBatch)
	q.runBufs.upd = q.upd

	q.pinnedPages = len(q.runScans) + 1
	s.addReaderLocked(qts)
	s.queries++
	s.queryPagesInUse += q.pinnedPages
	s.m.ScansStarted.Inc()
	s.m.ActiveQueries.Set(int64(s.queries))
	s.m.QueryPagesInUse.Set(int64(s.queryPagesInUse))
	return q, nil
}

func (s *Store) onePassCountLocked() int {
	n := 0
	for _, r := range s.runs {
		if r.Passes == 1 {
			n++
		}
	}
	return n
}

// Time returns the query's virtual completion time so far: the maximum
// over the disk scan, every SSD run scan, and accumulated CPU.
func (q *Query) Time() sim.Time {
	t := q.data.Time()
	for _, sc := range q.runScans {
		t = sim.MaxTime(t, sc.Time())
	}
	return sim.MaxTime(t, q.start.Add(q.cpu))
}

// Each hands fn the query's merged rows in key order, reflecting exactly
// the updates with timestamps below the query's (the outer join of main
// data and cached updates, §3.1): Merge_data_updates as one push loop.
// Per update group it reads the group's key once; the data scanner hands
// fn every main-data row below it straight from its page, and the group
// then folds onto the row under it, if any. A row's body may alias the
// data scanner's read buffer, an update's payload or, for a modified row,
// the query's scratch body, so it is valid only until fn returns.
//
// fn returning false stops Each, which returns nil; a later call resumes
// at the next row. The update stream is read through a BatchReader
// window; a batched refill only accelerates the consumer side: the
// merger's sources and the data scanner still read at the same points in
// the merged stream, so simulated times do not depend on how the rows
// are consumed.
func (q *Query) Each(fn func(key uint64, body []byte) bool) error {
	if q.err != nil || q.closed {
		return q.err
	}
	for {
		// A safe point: fn has returned for every row so far, and the fold
		// is finished with its group.
		q.runBufs.recycle()
		key, haveUpd, err := q.upd.PeekKey()
		if err != nil {
			q.err = err
			return err
		}
		if !haveUpd || key > 0 {
			hi := ^uint64(0)
			if haveUpd {
				hi = key - 1
			}
			rows, bytes, more := q.data.EachTo(hi, fn)
			q.cpu += sim.Duration(rows) * q.CPUPerRecord
			q.rowBytes += bytes
			if !more {
				return nil
			}
		}
		if err := q.data.Err(); err != nil {
			q.err = err
			return err
		}
		if !haveUpd {
			return nil
		}
		// An update group, with or without a base row under it.
		if q.data.Peek() && q.data.Key() == key {
			q.fold.onto(q.data.Take())
		} else {
			q.fold.reset()
		}
		for {
			q.fold.apply(q.upd.Head())
			q.upd.Consume()
			k, ok, err := q.upd.PeekKey()
			if err != nil {
				q.err = err
				return err
			}
			if !ok || k != key {
				break
			}
		}
		if q.fold.exists {
			q.cpu += q.CPUPerRecord
			q.rowBytes += int64(len(q.fold.body))
			if !fn(key, q.fold.body) {
				return nil
			}
		}
	}
}

// Drain consumes the remaining rows, returning how many were produced and
// the completion time. Most experiments only need the count and the time.
func (q *Query) Drain() (int64, sim.Time, error) {
	var n int64
	err := q.Each(func(uint64, []byte) bool { n++; return true })
	return n, q.Time(), err
}

// Close releases the query's memory pages and unregisters it, and
// returns its scan, run-read and merge buffers to their pools: no row it
// returned may be used afterwards. It must be called exactly once;
// migration waits for queries older than its timestamp to close.
func (q *Query) Close() {
	if q.closed {
		return
	}
	q.closed = true
	q.closeLocked()
	q.data.Release()
	q.releaseRunBufs()
	q.merger.Release()
	q.upd.Release()
}

// releaseRunBufs retires the run scanners' last buffers and returns every
// buffer to the pool.
func (q *Query) releaseRunBufs() {
	for _, sc := range q.runScans {
		sc.Release()
	}
	q.runBufs.release()
}

// closeLocked is Close's bookkeeping under the store latch.
func (q *Query) closeLocked() {
	s := q.s
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dropReaderLocked(q.ts)
	s.queries--
	s.queryPagesInUse -= q.pinnedPages
	s.m.ActiveQueries.Set(int64(s.queries))
	s.m.QueryPagesInUse.Set(int64(s.queryPagesInUse))
	s.m.ScanLatencyNanos.Observe(int64(q.Time().Sub(q.start)))
	s.m.ScanBytes.Observe(q.rowBytes)
	// Fold the merge and pushdown counters in one shot per query, keeping
	// the scan hot paths free of atomics.
	s.m.addMerger(q.merger.Stats())
	if q.pred != nil {
		skipped, filtered := int64(0), q.memFiltered
		for _, sc := range q.runScans {
			g, f := sc.Stats()
			skipped += g
			filtered += f
		}
		pg, pf := q.data.Stats()
		skipped += pg
		filtered += pf
		if skipped > 0 {
			s.m.GranulesSkipped.Add(skipped)
		}
		if filtered > 0 {
			s.m.PushdownFiltered.Add(filtered)
		}
	}
	for _, id := range q.pinnedRuns {
		s.unpinRunLocked(id)
	}
}
