package masm

import (
	"masm/internal/extsort"
	"masm/internal/memtable"
	"masm/internal/query"
	"masm/internal/runfile"
	"masm/internal/sim"
	"masm/internal/table"
	"masm/internal/update"
)

// Query is a table range scan with online updates merged in: the paper's
// replacement for the plain Table_range_scan operator (§3.2). It is a
// Volcano-style iterator tree:
//
//	Merge_data_updates
//	├── Table_range_scan            (disk, large sequential I/Os)
//	└── Merge_updates               (k-way merge + same-key combining)
//	    ├── Run_scan × (number of materialized sorted runs)   (SSD)
//	    └── Mem_scan                (in-memory buffer)
//
// Disk and SSD children advance independent virtual-time cursors, so their
// I/O overlaps exactly as the paper's asynchronous I/O does; the query's
// completion time is the maximum across children plus injected CPU time.
type Query struct {
	s          *Store
	ts         int64
	begin, end uint64
	// pred is the pushdown predicate (nil for an unpredicated scan): the
	// same normalized key-range predicate is applied below the merge by
	// the data scan, every run scan, and the mem scan, so excluded
	// records never enter the merge at all.
	pred *update.Pred

	data     *table.Scanner
	runScans []*runfile.Scanner
	mem      *memScanIter
	merger   *extsort.Merger // over runScans + mem; feeds upd
	upd      *update.BatchReader

	// CPUPerRecord injects per-output-record CPU cost, modelling complex
	// query processing above the scan (paper Fig 13).
	CPUPerRecord sim.Duration

	start       sim.Time
	cpu         sim.Duration
	pinnedRuns  []int64
	pinnedPages int
	dataPend    pendingRow
	closed      bool
	err         error

	// rowBytes accumulates the body bytes of every row returned; observed
	// into the scan-bytes histogram when the query closes.
	rowBytes int64
}

// updateBatch is the number of merged update records the query pulls from
// Merge_updates per refill.
const updateBatch = 256

// NewQuery performs the table-range-scan setup of Fig 8 and returns the
// operator tree. It assigns the query a fresh timestamp, flushes the
// update buffer if it holds at least S pages, and merges the earliest
// 1-pass runs while more runs exist than query memory pages. The
// timestamp is issued under the store latch, atomically with the query's
// reader registration, so a concurrent migration can never slip between
// the two and bake newer updates into pages this query will read.
func (s *Store) NewQuery(at sim.Time, begin, end uint64) (*Query, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.newQueryLocked(at, begin, end, s.oracle.Next())
}

// NewQueryAt is NewQuery with an explicit query timestamp: the query sees
// exactly the updates committed before qts. Transactions use this to read
// at their snapshot (paper §3.6); qts must come from the store's oracle,
// and — for the same stamp-vs-register race NewQuery avoids — must be
// protected by a registered reader (a Snapshot) if writers or migrations
// run concurrently.
func (s *Store) NewQueryAt(at sim.Time, begin, end uint64, qts int64) (*Query, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.newQueryLocked(at, begin, end, qts)
}

// NewQueryPred is NewQuery with a pushdown predicate: zone maps prune run
// granules (and the data scan prunes pages) whose key spans cannot match,
// and surviving sources filter records below the merge. A nil pred is
// exactly NewQuery.
func (s *Store) NewQueryPred(at sim.Time, begin, end uint64, pred *update.Pred) (*Query, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.newQueryPredLocked(at, begin, end, s.oracle.Next(), pred)
}

// NewQueryPredAt is NewQueryAt with a pushdown predicate (see NewQueryAt
// for the timestamp-safety requirements).
func (s *Store) NewQueryPredAt(at sim.Time, begin, end uint64, qts int64, pred *update.Pred) (*Query, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.newQueryPredLocked(at, begin, end, qts, pred)
}

// newQueryLocked is the table-range-scan setup; caller holds s.mu.
func (s *Store) newQueryLocked(at sim.Time, begin, end uint64, qts int64) (*Query, error) {
	return s.newQueryPredLocked(at, begin, end, qts, nil)
}

// newQueryPredLocked is newQueryLocked with predicate pushdown; a nil
// pred takes exactly the unpredicated path. Caller holds s.mu.
func (s *Store) newQueryPredLocked(at sim.Time, begin, end uint64, qts int64, pred *update.Pred) (*Query, error) {

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
		begin: begin,
		end:   end,
		pred:  pred,
		start: at,
		data:  s.tbl.NewScannerPred(at, begin, end, pred),
	}
	iters := make([]update.Iterator, 0, len(s.runs)+1)
	q.pinnedRuns = make([]int64, 0, len(s.runs))
	for _, r := range s.runs {
		sc := r.ScanPred(at, begin, end, qts, s.cfg.ScanGranularity, pred)
		q.runScans = append(q.runScans, sc)
		iters = append(iters, sc)
		s.pins[r.ID]++
		q.pinnedRuns = append(q.pinnedRuns, r.ID)
	}
	_, flushEpoch := s.buf.Epochs()
	q.mem = &memScanIter{
		q:        q,
		ms:       s.buf.ScanPred(begin, end, qts, pred),
		at:       at,
		maxRunID: s.nextRunID - 1,
		epoch0:   flushEpoch,
	}
	iters = append(iters, q.mem)
	merger, err := extsort.NewMerger(iters...)
	if err != nil {
		// The query never registers, so Close cannot run: drop the run
		// pins taken above or the runs' extents leak when later retired.
		for _, id := range q.pinnedRuns {
			s.unpinRunLocked(id)
		}
		return nil, err
	}
	q.merger = merger
	q.upd = update.NewBatchReader(merger, updateBatch)

	q.pinnedPages = len(q.runScans) + 1
	s.activeQueries[q] = qts
	s.queryPagesInUse += q.pinnedPages
	s.m.ScansStarted.Inc()
	s.m.ActiveQueries.Set(int64(len(s.activeQueries)))
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

// TS returns the query's timestamp.
func (q *Query) TS() int64 { return q.ts }

// Time returns the query's virtual completion time so far: the maximum
// over the disk scan, every SSD run scan, and accumulated CPU.
func (q *Query) Time() sim.Time {
	t := q.data.Time()
	for _, sc := range q.runScans {
		t = sim.MaxTime(t, sc.Time())
	}
	t = sim.MaxTime(t, q.mem.at)
	return sim.MaxTime(t, q.start.Add(q.cpu))
}

// Err returns the first error the query encountered.
func (q *Query) Err() error { return q.err }

// Next returns the next merged row of the range, in key order, reflecting
// exactly the updates with timestamps below the query's (the outer join of
// main data and cached updates, §3.1).
func (q *Query) Next() (table.Row, bool, error) {
	if q.err != nil || q.closed {
		return table.Row{}, false, q.err
	}
	for {
		row, haveRow := q.peekData()
		upd, haveUpd, err := q.peekUpd()
		if err != nil {
			q.err = err
			return table.Row{}, false, err
		}
		switch {
		case !haveRow && !haveUpd:
			return table.Row{}, false, q.data.Err()
		case haveRow && (!haveUpd || row.Key < upd.Key):
			q.consumeData()
			q.cpu += q.CPUPerRecord
			q.rowBytes += int64(len(row.Body))
			return row, true, nil
		default:
			// An update group, with or without a base row under it.
			key := upd.Key
			var fold rowFold
			if haveRow && row.Key == key {
				q.consumeData()
				fold = foldOnto(row)
			}
			for {
				u, ok, err := q.peekUpd()
				if err != nil {
					q.err = err
					return table.Row{}, false, err
				}
				if !ok || u.Key != key {
					break
				}
				q.consumeUpd()
				fold.apply(&u)
			}
			if fold.exists {
				q.cpu += q.CPUPerRecord
				q.rowBytes += int64(len(fold.body))
				return table.Row{Key: key, Body: fold.body, PageTS: fold.ts}, true, nil
			}
		}
	}
}

// Rows adapts the query's merged row stream to the streaming operator
// package's Iterator, so relational pipelines (filter, project,
// aggregate, join) compose directly over the merge engine. The adapter
// is single-use, like the query itself; TS carries the row's newest
// applied update timestamp (the page timestamp for untouched base rows).
func (q *Query) Rows() query.Iterator { return queryRows{q} }

type queryRows struct{ q *Query }

func (r queryRows) Next() (query.Row, bool, error) {
	row, ok, err := r.q.Next()
	if err != nil || !ok {
		return query.Row{}, false, err
	}
	return query.Row{Key: row.Key, TS: row.PageTS, Body: row.Body}, true, nil
}

// Drain consumes the remaining rows, returning how many were produced and
// the completion time. Most experiments only need the count and the time.
func (q *Query) Drain() (int64, sim.Time, error) {
	var n int64
	for {
		_, ok, err := q.Next()
		if err != nil {
			return n, q.Time(), err
		}
		if !ok {
			return n, q.Time(), nil
		}
		n++
	}
}

// Close releases the query's memory pages and unregisters it. It must be
// called exactly once; migration waits for queries older than its
// timestamp to close.
func (q *Query) Close() {
	if q.closed {
		return
	}
	q.closed = true
	s := q.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.activeQueries[q]; ok {
		s.queryPagesInUse -= q.pinnedPages
		delete(s.activeQueries, q)
		s.m.ActiveQueries.Set(int64(len(s.activeQueries)))
		s.m.QueryPagesInUse.Set(int64(s.queryPagesInUse))
		s.m.ScanLatencyNanos.Observe(int64(q.Time().Sub(q.start)))
		s.m.ScanBytes.Observe(q.rowBytes)
	}
	// Fold the merge and pushdown counters in one shot per query, keeping
	// the scan hot paths free of atomics.
	s.m.addMerger(q.merger.Stats())
	if q.pred != nil {
		var skipped, filtered int64
		for _, sc := range q.runScans {
			g, f := sc.Stats()
			skipped += g
			filtered += f
		}
		if q.mem.rs != nil {
			g, f := q.mem.rs.Stats()
			skipped += g
			filtered += f
		}
		filtered += q.mem.ms.Filtered()
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

type pendingRow struct {
	row   table.Row
	valid bool
	done  bool
}

// peekData/consumeData implement one-row lookahead over the data scan.
func (q *Query) peekData() (table.Row, bool) {
	if q.dataPend.valid {
		return q.dataPend.row, true
	}
	if q.dataPend.done {
		return table.Row{}, false
	}
	row, ok := q.data.Next()
	if !ok {
		q.dataPend.done = true
		return table.Row{}, false
	}
	q.dataPend.row, q.dataPend.valid = row, true
	return row, true
}

func (q *Query) consumeData() { q.dataPend.valid = false }

// peekUpd/consumeUpd implement lookahead over Merge_updates through a
// BatchReader window. A batched refill only accelerates the consumer
// side: the merger's sources still perform device reads at the same
// points in the merged stream, so simulated times are unchanged.
func (q *Query) peekUpd() (update.Record, bool, error) {
	return q.upd.Peek()
}

func (q *Query) consumeUpd() { q.upd.Consume() }

// memScanIter wraps a Mem_scan and, when the buffer is flushed underneath
// it, replaces itself with a Run_scan over the run the flush produced,
// positioned just after the last record returned (paper §3.2, "Online
// Updates and Range Scan"). All later flushes contain only records newer
// than the query's timestamp, so a single replacement suffices.
type memScanIter struct {
	q        *Query
	ms       *memtable.Scan
	rs       *runfile.Scanner
	at       sim.Time
	maxRunID int64 // newest run that existed when the query started
	epoch0   int64 // memtable flush epoch when the query started

	// carry holds the first record surviving a failed-flush resume, found
	// while skipping the re-opened scan past the delivery frontier.
	carry      update.Record
	carryValid bool
	one        [1]update.Record // scratch for Next delegating to NextBatch
}

// NextBatch implements update.BatchIterator: the fast path while the
// memtable scan (or its replacement Run_scan) is undisturbed. A detected
// flush is resolved by resolveFlush — the flushed signal is one-shot (the
// Mem_scan latches done when it reports it), so the resolution must
// happen here, before any further poll of the drained scan.
func (m *memScanIter) NextBatch(dst []update.Record) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	for {
		if m.carryValid {
			// A failed-flush resolution buffered the first resumed record.
			m.carryValid = false
			dst[0] = m.carry
			if len(dst) == 1 {
				return 1, nil
			}
			n, err := m.NextBatch(dst[1:])
			return 1 + n, err
		}
		if m.rs != nil {
			n, err := m.rs.NextBatch(dst)
			m.at = sim.MaxTime(m.at, m.rs.Time())
			return n, err
		}
		n, flushed := m.ms.NextBatch(dst)
		if n > 0 || !flushed {
			return n, nil
		}
		if err := m.resolveFlush(); err != nil {
			return 0, err
		}
		// Loop: read from the replacement source (m.rs, the re-opened
		// m.ms, or the carried record).
	}
}

// Next implements update.Iterator.
func (m *memScanIter) Next() (update.Record, bool, error) {
	n, err := m.NextBatch(m.one[:])
	if err != nil || n == 0 {
		return update.Record{}, false, err
	}
	return m.one[0], true, nil
}

// resolveFlush replaces a drained Mem_scan with its successor source.
//
// The buffer was drained into a new run. The first post-snapshot
// flush drained every record this scan had not yet returned (all its
// visible records were in the buffer at query start), so the exact
// replacement is the run recorded for the first flush epoch after the
// query's — chased through any merges that have since absorbed it.
// An ID-ordering heuristic is not enough: concurrent query-setup
// merges mint fresh IDs interleaved with flushes, and latching onto a
// merge product that excludes the flush run would silently drop
// committed-before-scan records. The run is pinned in the same latch
// hold that finds it — otherwise a concurrent merge could consume it
// and free its extent before this scan opens it.
//
// On return the iterator reads from m.rs (the replacement Run_scan,
// positioned after the last returned record), or from a re-opened m.ms
// when the flush failed and restored its records, with the first record
// past the resume point parked in m.carry.
func (m *memScanIter) resolveFlush() error {
	// The resume bound is the last record this iterator DELIVERED, taken
	// from the scan that just reported the flush. It must be pinned here:
	// if a second flush lands while the fallback below skips a re-opened
	// scan forward, that scan's own Resume() points at the skip position,
	// not at the delivery frontier, and resuming from it would replay
	// already-delivered records.
	lastKey, lastTS, started := m.ms.Resume()
	return m.resolveFlushFrom(lastKey, lastTS, started)
}

func (m *memScanIter) resolveFlushFrom(lastKey uint64, lastTS int64, started bool) error {
	s := m.q.s
	s.mu.Lock()
	var target *runfile.Run
	_, cur := s.buf.Epochs()
	for e := m.epoch0 + 1; e <= cur; e++ {
		id, ok := s.flushRunByEpoch[e]
		if !ok {
			continue // an empty drain bumped the epoch without a run
		}
		for {
			if target = s.runByIDLocked(id); target != nil {
				break
			}
			next, merged := s.mergedInto[id]
			if !merged {
				break
			}
			id = next
		}
		break
	}
	if target == nil {
		// Fallback (tracking pruned or flush predates it): earliest live
		// run newer than the query's snapshot.
		for _, r := range s.runs {
			if r.ID > m.maxRunID {
				if target == nil || r.ID < target.ID {
					target = r
				}
			}
		}
	}
	if target == nil {
		// No replacement run exists: the flush failed and restored the
		// records to the buffer (a successful flush always registers its
		// run, and migration cannot delete runs while this reader is
		// open). Re-open the memtable scan and resume past the last
		// delivered record, parking the first surviving record in m.carry.
		m.ms = s.buf.ScanPred(m.q.begin, m.q.end, m.q.ts, m.q.pred)
		s.mu.Unlock()
		for started {
			rec, ok, fl := m.ms.Next()
			if fl {
				// Flushed again underneath; resolve again against the
				// original delivery frontier.
				return m.resolveFlushFrom(lastKey, lastTS, started)
			}
			if !ok {
				return nil // exhausted; the done scan reports end of stream
			}
			if rec.Key > lastKey || (rec.Key == lastKey && rec.TS > lastTS) {
				m.carry, m.carryValid = rec, true
				return nil
			}
		}
		return nil // nothing delivered before the flush: fresh scan is exact
	}
	s.pins[target.ID]++
	m.q.pinnedRuns = append(m.q.pinnedRuns, target.ID)
	if _, ok := s.activeQueries[m.q]; ok {
		m.q.pinnedPages++
		s.queryPagesInUse++
		s.m.QueryPagesInUse.Set(int64(s.queryPagesInUse))
	}
	gran := s.cfg.ScanGranularity
	s.mu.Unlock()
	// Pinned: the extent stays allocated even if a merge retires the run
	// (it is parked in the dead set until the pin drains). The replacement
	// scan carries the query's pushdown predicate; the run postdates the
	// cached plan, so its segments are planned fresh here.
	m.rs = target.ScanPred(m.at, m.q.begin, m.q.end, m.q.ts, gran, m.q.pred)
	if started {
		m.rs.SkipTo(lastKey, lastTS)
	}
	return nil
}
