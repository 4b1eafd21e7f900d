// Package extsort provides the external-sorting building blocks of MaSM:
// k-way merging of sorted update streams and same-key combining.
//
// MaSM models query/update merging as an outer join evaluated with a
// sort-merge strategy (paper §3.1): cached updates are sorted in the
// layout order of the main data and merged with the table range scan.
// Two-pass external sorting of ‖SSD‖ pages of updates needs M = √‖SSD‖
// pages of memory; this package implements the merge side, while run
// generation lives in memtable/runfile.
//
// The merge engine is a cache-friendly loser tree over batched record
// buffers: each source keeps a small batch of decoded records refilled
// through update.FillBatch, and selecting the next winner costs ⌈log₂ k⌉
// integer comparisons with no interface dispatch, no container/heap
// boxing, and no allocations per record in steady state. Sources are
// refilled strictly on demand — a source performs I/O only at the moment
// the merge needs its next record and none is buffered — so the sequence
// of simulated device requests is identical to record-at-a-time merging
// and the paper experiments' virtual-time results are unchanged.
package extsort

import (
	"slices"
	"sync"

	"masm/internal/update"
)

// sourceBatch is the number of records buffered per merge source. One SSD
// granule (4 KB) holds roughly 200 minimal records, so a batch this size
// amortizes the per-call overhead without read-ahead beyond what a single
// granule decode already implies.
const sourceBatch = 128

// mergeSource is one input of the loser tree: a batch window over an
// iterator. done distinguishes "window empty, refill" from "stream
// exhausted".
type mergeSource struct {
	it   update.Iterator
	buf  []update.Record
	pos  int
	n    int
	done bool
}

// refill pulls the next batch from the underlying iterator. It must be
// called only when the window is empty and the source is not done. buf
// stays at full length; [pos, n) bounds the valid window.
func (s *mergeSource) refill() error {
	n, err := update.FillBatch(s.it, s.buf)
	if err != nil {
		return err
	}
	s.pos, s.n = 0, n
	if n == 0 {
		s.done = true
	}
	return nil
}

// Merger merges k update iterators, each individually ordered by
// (key, timestamp), into one stream in global (key, timestamp) order,
// breaking ties deterministically by source index so merging is stable
// across runs of the simulation. It is the engine inside the
// Merge_updates operator and inside 2-pass run generation.
//
// Merger implements update.BatchIterator; NextBatch is the fast path.
type Merger struct {
	srcs []mergeSource
	// curKey/curTS/alive mirror each source's current record so the
	// comparisons on the replay path touch three dense arrays instead of
	// chasing into per-source batch buffers.
	curKey []uint64
	curTS  []int64
	alive  []bool
	// tree is the loser tree: tree[1..k-1] hold the source index that
	// lost the match at that internal node, tree[0] the overall winner.
	// Leaves are implicit: source i plays at node k+i.
	tree []int32
	k    int
	err  error
	// Work counters, accumulated as plain int64s (an atomic per
	// comparison would tax the hottest loop in the engine); consumers
	// fold Stats() into registry counters when the merge completes.
	cmps    int64
	refills int64
	records int64
}

// MergerStats counts the merge engine's work since construction.
type MergerStats struct {
	Comparisons int64 // loser-tree matches played
	Refills     int64 // source batch refills (each may issue device reads)
	Records     int64 // records emitted
}

// Stats returns the merger's work counters so far. Not safe concurrently
// with Next/NextBatch; read it when the merge is done (or the merger is
// otherwise quiescent).
func (m *Merger) Stats() MergerStats {
	return MergerStats{Comparisons: m.cmps, Refills: m.refills, Records: m.records}
}

var mergerPool = sync.Pool{New: func() any { return new(Merger) }}

// NewMerger builds a merger over the given iterators. Iterators are pulled
// lazily; an empty iterator contributes nothing. The initial batch of each
// source is fetched in argument order, matching the record-at-a-time
// engine's first-read order. The merger comes from a pool: Release hands
// its batches to the next one.
func NewMerger(its ...update.Iterator) (*Merger, error) {
	k := len(its)
	m := mergerPool.Get().(*Merger)
	// Reslicing within capacity keeps each source's batch for reuse.
	srcs := slices.Grow(m.srcs[:0], k)[:k]
	for i, it := range its {
		buf := srcs[i].buf
		if cap(buf) < sourceBatch {
			buf = make([]update.Record, sourceBatch)
		}
		srcs[i] = mergeSource{it: it, buf: buf[:sourceBatch]}
	}
	*m = Merger{
		srcs:   srcs,
		curKey: slices.Grow(m.curKey[:0], k)[:k],
		curTS:  slices.Grow(m.curTS[:0], k)[:k],
		alive:  slices.Grow(m.alive[:0], k)[:k],
		tree:   slices.Grow(m.tree[:0], max(k, 1))[:max(k, 1)],
		k:      k,
	}
	for i := range m.tree {
		m.tree[i] = -1
	}
	for i := range m.srcs {
		m.refills++
		if err := m.srcs[i].refill(); err != nil {
			m.Release()
			return nil, err
		}
		m.syncCur(i)
	}
	for i := 0; i < k; i++ {
		m.seed(i)
	}
	return m, nil
}

// Release returns the merger to the pool. Neither it nor its sources may
// be used afterwards; the records it returned are copies and stay valid.
func (m *Merger) Release() {
	for i := range m.srcs {
		clear(m.srcs[i].buf) // the pool must not pin payloads
		m.srcs[i].it = nil
	}
	mergerPool.Put(m)
}

// syncCur refreshes the dense comparison mirror of source i.
func (m *Merger) syncCur(i int) {
	s := &m.srcs[i]
	if s.done {
		m.alive[i] = false
		return
	}
	m.alive[i] = true
	r := &s.buf[s.pos]
	m.curKey[i], m.curTS[i] = r.Key, r.TS
}

// beats reports whether source a's current record precedes source b's in
// (key, ts, source) order. Exhausted sources sort after everything.
func (m *Merger) beats(a, b int) bool {
	m.cmps++
	if !m.alive[a] {
		return false
	}
	if !m.alive[b] {
		return true
	}
	if m.curKey[a] != m.curKey[b] {
		return m.curKey[a] < m.curKey[b]
	}
	if m.curTS[a] != m.curTS[b] {
		return m.curTS[a] < m.curTS[b]
	}
	return a < b
}

// seed plays source s up the tree during construction: at the first empty
// node it parks and waits for the opponent subtree; at occupied nodes the
// loser stays and the winner continues toward the root.
func (m *Merger) seed(s int) {
	for t := (m.k + s) >> 1; t > 0; t >>= 1 {
		o := int(m.tree[t])
		if o < 0 {
			m.tree[t] = int32(s)
			return
		}
		if m.beats(o, s) {
			m.tree[t] = int32(s)
			s = o
		}
	}
	m.tree[0] = int32(s)
}

// replay re-runs the matches on the path from source s's leaf to the root
// after s's current record changed, leaving the loser at every node and
// the overall winner in tree[0].
func (m *Merger) replay(s int) {
	for t := (m.k + s) >> 1; t > 0; t >>= 1 {
		if o := int(m.tree[t]); m.beats(o, s) {
			m.tree[t] = int32(s)
			s = o
		}
	}
	m.tree[0] = int32(s)
}

// advance consumes the current record of source w and refills its window
// if it emptied. The refill happens exactly when the merge needs w's next
// record, preserving the record-at-a-time engine's I/O submission order.
func (m *Merger) advance(w int) error {
	s := &m.srcs[w]
	s.pos++
	if s.pos >= s.n {
		m.refills++
		if err := s.refill(); err != nil {
			return err
		}
	}
	m.syncCur(w)
	return nil
}

// Next returns the next record in (key, ts) order.
func (m *Merger) Next() (update.Record, bool, error) {
	if m.err != nil {
		return update.Record{}, false, m.err
	}
	if m.k == 0 {
		return update.Record{}, false, nil
	}
	w := int(m.tree[0])
	if w < 0 || !m.alive[w] {
		return update.Record{}, false, nil
	}
	rec := m.srcs[w].buf[m.srcs[w].pos]
	if err := m.advance(w); err != nil {
		m.err = err
		return update.Record{}, false, err
	}
	m.replay(w)
	m.records++
	return rec, true, nil
}

// NextBatch implements update.BatchIterator: it fills dst with the next
// merged records. The n records returned alongside a non-nil error are
// valid; the stream is broken after them.
func (m *Merger) NextBatch(dst []update.Record) (int, error) {
	if m.err != nil {
		return 0, m.err
	}
	if m.k == 0 {
		return 0, nil
	}
	n := 0
	for n < len(dst) {
		w := int(m.tree[0])
		if w < 0 || !m.alive[w] {
			break
		}
		dst[n] = m.srcs[w].buf[m.srcs[w].pos]
		n++
		m.records++
		if err := m.advance(w); err != nil {
			m.err = err
			return n, err
		}
		m.replay(w)
	}
	return n, nil
}

// MergePolicy decides whether two updates to the same key, with commit
// timestamps olderTS < newerTS, may be collapsed into one record. Per
// §3.5 ("Handling Skews in Incoming Updates"), collapsing is allowed only
// if no concurrent range scan has a timestamp t with olderTS < t ≤ newerTS
// — otherwise that scan would observe the wrong prefix of updates.
type MergePolicy func(olderTS, newerTS int64) bool

// MergeAll always collapses duplicates; valid when no queries are active
// in the affected timestamp window.
func MergeAll(_, _ int64) bool { return true }

// Combiner wraps a (key, ts)-ordered stream and collapses consecutive
// same-key records according to a MergePolicy, using update.Merge
// semantics. With MergeAll it yields at most one record per key — the form
// Merge_updates feeds to Merge_data_updates.
//
// Combiner implements update.BatchIterator. Next pulls from the source
// strictly record-at-a-time — run merging relies on this: its reads (the
// source run scanners) and writes (the output run writer) share the SSD
// timeline, and any consumer read-ahead would reorder the simulated device
// requests. NextBatch pulls source batches and is the fast path everywhere
// the consumer does not write the device it is reading.
type Combiner struct {
	src     update.Iterator
	policy  MergePolicy
	pending update.Record
	valid   bool
	err     error

	// in is the batch window over src, used by NextBatch only. Next
	// drains it first if both styles are mixed.
	in           []update.Record
	inPos, inN   int
	srcExhausted bool
}

// NewCombiner wraps src with the given policy.
func NewCombiner(src update.Iterator, policy MergePolicy) *Combiner {
	return &Combiner{src: src, policy: policy}
}

// nextInput returns the next source record: buffered batch first, then the
// record-at-a-time path.
func (c *Combiner) nextInput() (update.Record, bool, error) {
	if c.inPos < c.inN {
		r := c.in[c.inPos]
		c.inPos++
		return r, true, nil
	}
	if c.srcExhausted {
		return update.Record{}, false, nil
	}
	return c.src.Next()
}

// Next returns the next (possibly combined) record.
func (c *Combiner) Next() (update.Record, bool, error) {
	if c.err != nil {
		return update.Record{}, false, c.err
	}
	for {
		rec, ok, err := c.nextInput()
		if err != nil {
			c.err = err
			return update.Record{}, false, err
		}
		if !ok {
			if c.valid {
				c.valid = false
				return c.pending, true, nil
			}
			return update.Record{}, false, nil
		}
		if !c.valid {
			c.pending, c.valid = rec, true
			continue
		}
		if c.pending.Key == rec.Key && c.policy(c.pending.TS, rec.TS) {
			c.pending = update.Merge(&c.pending, &rec)
			continue
		}
		out := c.pending
		c.pending = rec
		return out, true, nil
	}
}

// NextBatch implements update.BatchIterator. It refills its input window
// with source batches, so a batched source (e.g. the Merger) is consumed
// without per-record call overhead.
func (c *Combiner) NextBatch(dst []update.Record) (int, error) {
	if c.in == nil {
		if c.err != nil {
			return 0, c.err
		}
		c.in = make([]update.Record, sourceBatch)
	}
	n := 0
	for n < len(dst) {
		if c.inPos >= c.inN {
			if c.err != nil {
				// The records that preceded the error have been combined
				// and served (matching what Next would have processed
				// before hitting it); pending is withheld, as in Next.
				return n, c.err
			}
			if c.srcExhausted {
				if c.valid {
					c.valid = false
					dst[n] = c.pending
					n++
				}
				return n, nil
			}
			in, err := update.FillBatch(c.src, c.in)
			c.inPos, c.inN = 0, in
			if err != nil {
				c.err = err
				continue // combine the pre-error records first
			}
			if in == 0 {
				c.srcExhausted = true
			}
			continue
		}
		rec := c.in[c.inPos]
		c.inPos++
		if !c.valid {
			c.pending, c.valid = rec, true
			continue
		}
		if c.pending.Key == rec.Key && c.policy(c.pending.TS, rec.TS) {
			c.pending = update.Merge(&c.pending, &rec)
			continue
		}
		dst[n] = c.pending
		n++
		c.pending = rec
	}
	return n, nil
}
