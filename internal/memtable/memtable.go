// Package memtable implements MaSM's latched in-memory update buffer
// (paper §3.2): incoming well-formed updates are appended to the buffer;
// range scans sort it and read it through Mem_scan operators; when the
// buffer fills, its contents are flushed into a materialized sorted run.
//
// The subtle parts are concurrency-related and follow the paper closely:
//
//   - Appends go to the tail and do not disturb ongoing Mem_scans, because
//     a scan's query timestamp filters out records committed after it.
//   - The buffer records a sort timestamp whenever it is sorted; a
//     Mem_scan that detects a newer sort re-positions itself by searching
//     for its last-returned key.
//   - The buffer records a flush timestamp when it is drained into a run;
//     a Mem_scan that detects a flush reports it so the owning operator
//     tree can replace it with a Run_scan over the new run.
//   - Point probes (AppendKey) do not sort: they binary-search the sorted
//     prefix and walk the unsorted tail, so a one-key read never bumps the
//     sort epoch under a running Mem_scan. Only scans and drains sort.
package memtable

import (
	"fmt"
	"sort"
	"sync"

	"masm/internal/update"
)

// Buffer is the shared in-memory update buffer. All methods are safe for
// concurrent use; the internal mutex is the "latch" of the paper.
type Buffer struct {
	mu sync.Mutex

	recs     []update.Record
	bytes    int
	capBytes int

	sorted    int   // length of the sorted prefix of recs
	sortEpoch int64 // bumped every time the buffer is (re)sorted
	// flushEpoch is bumped every time the buffer is drained to a run;
	// Mem_scans compare it against the epoch they started under.
	flushEpoch int64
}

// New creates a buffer with the given capacity in bytes.
func New(capBytes int) *Buffer {
	if capBytes <= 0 {
		panic(fmt.Sprintf("memtable: non-positive capacity %d", capBytes))
	}
	return &Buffer{capBytes: capBytes}
}

// Append adds one update record. It returns false if the buffer is full,
// in which case the caller must flush (or steal pages) and retry.
func (b *Buffer) Append(r update.Record) bool {
	sz := update.EncodedSize(&r)
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.bytes+sz > b.capBytes {
		return false
	}
	b.recs = append(b.recs, r)
	b.bytes += sz
	return true
}

// Bytes returns the encoded size of the buffered records.
func (b *Buffer) Bytes() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.bytes
}

// Len returns the number of buffered records.
func (b *Buffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.recs)
}

// Capacity returns the configured capacity in bytes.
func (b *Buffer) Capacity() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.capBytes
}

// SetCapacity adjusts the capacity. MaSM-M uses this to steal idle query
// pages for incoming updates and to shrink back to S pages after a flush
// (paper Fig 8, "Incoming Updates" lines 2–6). Shrinking below the current
// content size is allowed; the buffer is simply considered full until the
// next flush.
func (b *Buffer) SetCapacity(capBytes int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.capBytes = capBytes
}

// sortLocked sorts the buffer by (key, ts) and bumps the sort epoch.
// Caller holds b.mu.
func (b *Buffer) sortLocked() {
	if b.sorted == len(b.recs) {
		return
	}
	recs := b.recs
	sort.SliceStable(recs, func(i, j int) bool { return update.Less(&recs[i], &recs[j]) })
	b.sorted = len(recs)
	b.sortEpoch++
}

// Sort sorts the buffer in (key, timestamp) order, as the table-range-scan
// setup requires before instantiating a Mem_scan.
func (b *Buffer) Sort() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.sortLocked()
}

// Drain sorts and removes every record with timestamp < beforeTS (all of
// them if beforeTS is MaxDrain), returning them in (key, ts) order. It
// bumps the flush epoch so Mem_scans notice. The caller writes the result
// into a materialized sorted run.
func (b *Buffer) Drain(beforeTS int64) []update.Record {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.sortLocked()
	out := make([]update.Record, 0, len(b.recs))
	rest := b.recs[:0]
	bytes := 0
	for _, r := range b.recs {
		if r.TS < beforeTS {
			out = append(out, r)
		} else {
			rest = append(rest, r)
			bytes += update.EncodedSize(&r)
		}
	}
	b.recs = rest
	b.bytes = bytes
	b.sorted = len(rest) // rest preserved sorted order
	b.flushEpoch++
	return out
}

// Restore re-appends records that a failed flush could not materialize,
// ignoring the capacity limit (the buffer is simply considered full until
// the next successful flush). The records re-enter as an unsorted tail;
// the next Sort/Scan re-sorts them.
func (b *Buffer) Restore(recs []update.Record) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := range recs {
		b.recs = append(b.recs, recs[i])
		b.bytes += update.EncodedSize(&recs[i])
	}
}

// MaxDrain drains every record regardless of timestamp.
const MaxDrain = int64(1<<63 - 1)

// Epochs returns the current (sortEpoch, flushEpoch) pair.
func (b *Buffer) Epochs() (int64, int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sortEpoch, b.flushEpoch
}

// Scan creates a Mem_scan over [begin, end] for a query with timestamp
// queryTS. The buffer is sorted as a side effect (paper §3.2, table range
// scan setup step 2).
func (b *Buffer) Scan(begin, end uint64, queryTS int64) *Scan {
	return b.ScanPred(begin, end, queryTS, nil)
}

// ScanPred is Scan with a pushdown predicate: records whose keys fail
// pred are dropped under the latch, before they ever enter the merge. A
// nil pred is Scan.
func (b *Buffer) ScanPred(begin, end uint64, queryTS int64, pred *update.Pred) *Scan {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.sortLocked()
	s := &Scan{
		b:          b,
		begin:      begin,
		end:        end,
		queryTS:    queryTS,
		pred:       pred,
		sortEpoch:  b.sortEpoch,
		flushEpoch: b.flushEpoch,
	}
	s.pos = b.lowerBoundLocked(begin, -1)
	return s
}

// lowerBoundLocked returns the first index i with
// (recs[i].Key, recs[i].TS) > (key, ts) in the sorted prefix.
// Caller holds b.mu.
func (b *Buffer) lowerBoundLocked(key uint64, ts int64) int {
	recs := b.recs[:b.sorted]
	return sort.Search(len(recs), func(i int) bool {
		if recs[i].Key != key {
			return recs[i].Key > key
		}
		return recs[i].TS > ts
	})
}

// AppendKey appends to dst the buffered records for key with timestamps
// below queryTS, without sorting the buffer: a binary search of the sorted
// prefix, then a pass over the tail appended since the last sort. The
// result is in timestamp order unless a failed flush restored older
// records into the tail; a caller that depends on the order sorts the
// handful of records it gets.
func (b *Buffer) AppendKey(dst []update.Record, key uint64, queryTS int64) []update.Record {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := b.lowerBoundLocked(key, -1); i < b.sorted && b.recs[i].Key == key; i++ {
		if b.recs[i].TS < queryTS {
			dst = append(dst, b.recs[i])
		}
	}
	for i := b.sorted; i < len(b.recs); i++ {
		if r := &b.recs[i]; r.Key == key && r.TS < queryTS {
			dst = append(dst, *r)
		}
	}
	return dst
}

// Scan is a Mem_scan operator instance. Multiple Scans may run over the
// same buffer concurrently; each tracks its own position.
type Scan struct {
	b          *Buffer
	begin, end uint64
	queryTS    int64
	pred       *update.Pred

	filtered   int64
	pos        int
	sortEpoch  int64
	flushEpoch int64
	lastKey    uint64
	lastTS     int64
	started    bool
	done       bool

	one [1]update.Record // scratch for Next delegating to NextBatch
}

// Next returns the next visible update record in key order. flushed=true
// reports that the buffer was drained since the scan began: the records
// this scan had not yet returned now live in a materialized sorted run,
// and the caller must replace this Mem_scan with a Run_scan positioned
// after the last returned record (paper §3.2, "Online Updates and Range
// Scan").
func (s *Scan) Next() (rec update.Record, ok bool, flushed bool) {
	n, flushed := s.NextBatch(s.one[:])
	if n == 0 {
		return update.Record{}, false, flushed
	}
	return s.one[0], true, false
}

// NextBatch fills dst with the next visible records under a single latch
// acquisition and returns how many it wrote. n == 0 with flushed == true
// reports the buffer was drained since the scan began (see Next); n == 0
// with flushed == false is end of scan. A flush is only ever reported at
// a batch boundary: records copied out before the flush was detected are
// delivered first, and the replacement Run_scan resumes after them.
func (s *Scan) NextBatch(dst []update.Record) (n int, flushed bool) {
	if s.done || len(dst) == 0 {
		return 0, false
	}
	s.b.mu.Lock()
	defer s.b.mu.Unlock()

	if s.flushEpoch != s.b.flushEpoch {
		// Buffer was flushed underneath us. Signal the caller to switch
		// to the new run; this scan is finished.
		s.done = true
		return 0, true
	}
	if s.sortEpoch != s.b.sortEpoch {
		// Re-sorted (another query arrived): re-locate our position by
		// searching for the last returned (key, ts).
		if s.started {
			s.pos = s.b.lowerBoundLocked(s.lastKey, s.lastTS)
		} else {
			s.pos = s.b.lowerBoundLocked(s.begin, -1)
		}
		s.sortEpoch = s.b.sortEpoch
	}
	recs := s.b.recs[:s.b.sorted]
	for s.pos < len(recs) && n < len(dst) {
		r := recs[s.pos]
		s.pos++
		if r.Key > s.end {
			s.done = true
			return n, false
		}
		// Records committed at or after the query's timestamp are
		// invisible (paper: "a query can only see earlier updates with
		// smaller timestamps").
		if r.TS >= s.queryTS {
			continue
		}
		if r.Key < s.begin {
			continue
		}
		if s.pred != nil && !s.pred.Match(r.Key) {
			s.filtered++
			continue
		}
		s.lastKey, s.lastTS = r.Key, r.TS
		s.started = true
		dst[n] = r
		n++
	}
	if n == 0 {
		s.done = true
	}
	return n, false
}

// Resume reports the position after the last returned record, for the
// replacement Run_scan when a flush interrupts this scan.
func (s *Scan) Resume() (key uint64, ts int64, started bool) {
	return s.lastKey, s.lastTS, s.started
}

// Filtered returns how many records the pushdown predicate dropped.
func (s *Scan) Filtered() int64 { return s.filtered }
