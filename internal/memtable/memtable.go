// Package memtable implements MaSM's latched in-memory update buffer
// (paper §3.2): incoming well-formed updates are appended to the buffer;
// when it fills, its contents are flushed into a materialized sorted run.
//
// Readers never iterate the buffer in place. Each takes a private copy of
// the records it may see under the latch — a range scan through
// AppendRange, a point read through AppendKey — so later appends, sorts
// and drains cannot disturb it. This replaces the paper's Mem_scan, which
// reads in place and must hand over to a Run_scan when a flush drains the
// buffer under it. The copy is of 48-byte record headers only: payloads
// are shared, and never mutated once buffered.
//
// The buffer is a sorted prefix followed by the unsorted tail appended
// since the last sort. A range scan sorts the tail in first; a point read
// does only once the tail outgrows the square root of the prefix, so the
// tail it passes over and the merge it amortises both cost O(√n).
package memtable

import (
	"cmp"
	"fmt"
	"slices"
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

	sorted int             // length of the sorted prefix of recs
	tail   []update.Record // sortLocked's merge scratch
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

// sortLocked sorts the buffer by (key, ts), stably. Only the tail
// appended since the last sort is sorted; it is then merged into the
// sorted prefix, prefix records first on ties, which is exactly a stable
// sort of the whole buffer. Caller holds b.mu.
func (b *Buffer) sortLocked() {
	if b.sorted == len(b.recs) {
		return
	}
	recs, n := b.recs, b.sorted
	slices.SortStableFunc(recs[n:], func(x, y update.Record) int {
		if c := cmp.Compare(x.Key, y.Key); c != 0 {
			return c
		}
		return cmp.Compare(x.TS, y.TS)
	})
	if n > 0 && update.Less(&recs[n], &recs[n-1]) {
		// Merge from the back: the tail moves aside, and each slot, right
		// to left, takes the larger of the two heads — the tail's on a tie.
		tail := append(b.tail[:0], recs[n:]...)
		i, j := n-1, len(tail)-1
		for w := len(recs) - 1; j >= 0; w-- {
			if i >= 0 && update.Less(&tail[j], &recs[i]) {
				recs[w] = recs[i]
				i--
			} else {
				recs[w] = tail[j]
				j--
			}
		}
		clear(tail) // the scratch must not pin payloads
		b.tail = tail[:0]
	}
	b.sorted = len(recs)
}

// Drain sorts and removes every record with timestamp < beforeTS (all of
// them if beforeTS is MaxDrain), returning them in (key, ts) order. The
// caller writes the result into a materialized sorted run.
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
	return out
}

// Restore re-appends records that a failed flush could not materialize,
// ignoring the capacity limit (the buffer is simply considered full until
// the next successful flush). The records re-enter as an unsorted tail;
// the next AppendRange or Drain sorts them into the prefix, as does an
// AppendKey that finds the tail too long.
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

// lowerBoundLocked returns the first index of the sorted prefix holding
// a key ≥ key. Caller holds b.mu.
func (b *Buffer) lowerBoundLocked(key uint64) int {
	recs := b.recs[:b.sorted]
	return sort.Search(len(recs), func(i int) bool { return recs[i].Key >= key })
}

// AppendRange appends to dst, in (key, ts) order, the buffered records
// with key in [begin, end], timestamp below queryTS and a key pred matches
// (a nil pred matches every key); filtered counts the records pred
// dropped. It sorts the buffer first, as the paper's range-scan setup
// does (§3.2, step 2). The appended records are the caller's: nothing the
// buffer does later changes them.
func (b *Buffer) AppendRange(dst []update.Record, begin, end uint64, queryTS int64, pred *update.Pred) (_ []update.Record, filtered int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.sortLocked()
	for _, r := range b.recs[b.lowerBoundLocked(begin):] {
		if r.Key > end {
			break
		}
		// Records committed at or after the query's timestamp are invisible
		// (paper: "a query can only see earlier updates with smaller
		// timestamps").
		if r.TS >= queryTS {
			continue
		}
		if pred != nil && !pred.Match(r.Key) {
			filtered++
			continue
		}
		dst = append(dst, r)
	}
	return dst, filtered
}

// AppendKey appends to dst the buffered records for key with timestamps
// below queryTS: a binary search of the sorted prefix, then a pass over
// the tail appended since the last sort. It first sorts the tail into the
// prefix if the tail is longer than √prefix (tail² > prefix), so the pass
// is O(√n) and the merge that keeps it so costs O(√n) per append,
// amortised. The result is in timestamp order unless a failed flush
// restored older records into the tail; a caller that depends on the
// order sorts the handful of records it gets.
func (b *Buffer) AppendKey(dst []update.Record, key uint64, queryTS int64) []update.Record {
	b.mu.Lock()
	defer b.mu.Unlock()
	if tail := len(b.recs) - b.sorted; tail*tail > b.sorted {
		b.sortLocked()
	}
	for i := b.lowerBoundLocked(key); i < b.sorted && b.recs[i].Key == key; i++ {
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
