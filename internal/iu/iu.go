// Package iu implements the Indexed Updates baseline (paper §2.3,
// Fig 5(b)): the prior differential-update design extended directly to
// SSDs. Incoming updates are appended to SSD-resident update tables (so
// writes stay sequential), and a positional index on the cached updates is
// kept entirely in memory — the paper's "ideal-case IU", which ignores the
// index's memory footprint to give the baseline its best shot.
//
// The weakness the paper demonstrates is on the read side: a range scan
// probes the index and then performs one random 4 KB SSD read per update
// entry it must retrieve, reading and discarding an entire SSD page to
// fetch a single entry. MaSM's materialized sorted runs exist precisely to
// avoid this access pattern.
package iu

import (
	"fmt"
	"sort"
	"sync"

	"masm/internal/sim"
	"masm/internal/storage"
	"masm/internal/table"
	"masm/internal/update"
)

// ssdPageSize is the SSD's internal page: the unit of the random reads a
// scan performs per indexed entry (paper §4.1: "the SSD has 4KB internal
// page size, IU uses 4KB-sized SSD I/Os").
const ssdPageSize = 4 << 10

// indexEntry locates one cached update on the SSD (or in the append
// buffer).
type indexEntry struct {
	key uint64
	ts  int64
	off int64 // byte offset on the SSD; -1 while still in the append buffer
	len int32
}

// Store is an IU update cache attached to one table.
type Store struct {
	tbl *table.Table
	ssd *storage.Volume

	mu      sync.Mutex
	index   []indexEntry // sorted by (key, ts)
	dirty   bool         // index has unsorted tail
	buf     []byte       // append buffer, flushed at ssdPageSize
	bufRecs []update.Record
	wOff    int64
	nextTS  int64
}

// NewStore creates an IU store over tbl caching updates on ssd.
func NewStore(tbl *table.Table, ssd *storage.Volume) *Store {
	return &Store{tbl: tbl, ssd: ssd}
}

// CachedBytes returns the bytes appended to the SSD update tables.
func (s *Store) CachedBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wOff + int64(len(s.buf))
}

// ApplyAuto assigns a timestamp and caches the update: append to the SSD
// update table (sequential I/O) and insert into the in-memory index.
func (s *Store) ApplyAuto(at sim.Time, rec update.Record) (sim.Time, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextTS++
	rec.TS = s.nextTS
	start := int64(len(s.buf))
	s.buf = update.AppendEncode(s.buf, &rec)
	s.bufRecs = append(s.bufRecs, rec)
	s.index = append(s.index, indexEntry{
		key: rec.Key, ts: rec.TS,
		off: -(start + 1), // still buffered; patched on flush
		len: int32(update.EncodedSize(&rec)),
	})
	s.dirty = true
	for len(s.buf) >= ssdPageSize {
		t, err := s.flushPageLocked(at)
		if err != nil {
			return at, err
		}
		at = t
	}
	return at, nil
}

// flushPageLocked appends the buffered updates (all complete records)
// sequentially to the SSD update table and patches their index entries
// with on-SSD offsets.
func (s *Store) flushPageLocked(at sim.Time) (sim.Time, error) {
	n := len(s.buf)
	if n == 0 {
		return at, nil
	}
	c, err := s.ssd.WriteAt(at, s.buf, s.wOff)
	if err != nil {
		return at, err
	}
	for i := range s.index {
		if s.index[i].off < 0 {
			bufOff := -(s.index[i].off + 1)
			s.index[i].off = s.wOff + bufOff
		}
	}
	s.bufRecs = s.bufRecs[:0]
	s.buf = s.buf[:0]
	s.wOff += int64(n)
	return c.End, nil
}

func (s *Store) sortIndexLocked() {
	if !s.dirty {
		return
	}
	sort.Slice(s.index, func(i, j int) bool {
		if s.index[i].key != s.index[j].key {
			return s.index[i].key < s.index[j].key
		}
		return s.index[i].ts < s.index[j].ts
	})
	s.dirty = false
}

// Query merges a table range scan with the cached updates. The returned
// iterator yields fresh rows; its Time reflects the disk scan plus the
// random SSD reads. The SSD reads serialize with result production — the
// index is probed as the scan advances, which is exactly the dependence
// that makes IU slow (paper §4.2).
type Query struct {
	s          *Store
	qts        int64
	data       *table.Scanner
	entries    []indexEntry
	bufByTS    map[int64]update.Record
	ei         int
	pendingRow *table.Row
	dataDone   bool
	ssdTime    sim.Time
	err        error
}

// NewQuery starts a merged range scan of [begin, end] at time at.
func (s *Store) NewQuery(at sim.Time, begin, end uint64) *Query {
	s.mu.Lock()
	s.sortIndexLocked()
	qts := s.nextTS + 1
	lo := sort.Search(len(s.index), func(i int) bool { return s.index[i].key >= begin })
	hi := sort.Search(len(s.index), func(i int) bool { return s.index[i].key > end })
	entries := make([]indexEntry, hi-lo)
	copy(entries, s.index[lo:hi])
	bufByTS := make(map[int64]update.Record, len(s.bufRecs))
	for _, r := range s.bufRecs {
		bufByTS[r.TS] = r
	}
	s.mu.Unlock()
	return &Query{
		s:       s,
		qts:     qts,
		data:    s.tbl.NewScanner(at, begin, end),
		entries: entries,
		bufByTS: bufByTS,
		ssdTime: at,
	}
}

// Time returns the query's completion time so far: disk scan time plus the
// serialized SSD fetches.
func (q *Query) Time() sim.Time {
	// SSD fetches are driven by scan progress; the critical path is the
	// disk position plus the SSD reads issued so far beyond it.
	return sim.MaxTime(q.data.Time(), q.ssdTime)
}

// fetch retrieves the update record behind an index entry, paying a random
// 4 KB SSD read when it is SSD-resident.
func (q *Query) fetch(e indexEntry) (update.Record, error) {
	if e.off < 0 {
		rec, ok := q.bufByTS[e.ts]
		if !ok {
			return update.Record{}, fmt.Errorf("iu: buffered entry ts=%d vanished", e.ts)
		}
		return rec, nil
	}
	// Read the whole containing SSD page and discard the rest — the
	// wasteful pattern the paper calls out.
	pageOff := e.off / ssdPageSize * ssdPageSize
	span := int64(ssdPageSize)
	if e.off+int64(e.len) > pageOff+span {
		span = e.off + int64(e.len) - pageOff // entry straddles pages
	}
	buf := make([]byte, span)
	// Serialize SSD fetches after both prior fetches and the disk
	// position that revealed the need for this entry.
	issueAt := sim.MaxTime(q.ssdTime, q.data.Time())
	c, err := q.s.ssd.ReadAt(issueAt, buf, pageOff)
	if err != nil {
		return update.Record{}, err
	}
	q.ssdTime = c.End
	rec, _, err := update.Decode(buf[e.off-pageOff:])
	return rec, err
}

// Next returns the next fresh row.
func (q *Query) Next() (table.Row, bool, error) {
	if q.err != nil {
		return table.Row{}, false, q.err
	}
	for {
		if q.pendingRow == nil && !q.dataDone {
			row, ok := q.data.Next()
			if !ok {
				if err := q.data.Err(); err != nil {
					q.err = err
					return table.Row{}, false, err
				}
				q.dataDone = true
			} else {
				q.pendingRow = &row
			}
		}
		var nextEntryKey uint64
		haveEntry := q.ei < len(q.entries)
		if haveEntry {
			nextEntryKey = q.entries[q.ei].key
		}
		switch {
		case q.pendingRow == nil && !haveEntry:
			return table.Row{}, false, nil
		case q.pendingRow != nil && (!haveEntry || q.pendingRow.Key < nextEntryKey):
			row := *q.pendingRow
			q.pendingRow = nil
			return row, true, nil
		default:
			key := nextEntryKey
			var body []byte
			exists := false
			if q.pendingRow != nil && q.pendingRow.Key == key {
				body, exists = q.pendingRow.Body, true
				q.pendingRow = nil
			}
			for q.ei < len(q.entries) && q.entries[q.ei].key == key {
				e := q.entries[q.ei]
				q.ei++
				if e.ts >= q.qts {
					continue
				}
				rec, err := q.fetch(e)
				if err != nil {
					q.err = err
					return table.Row{}, false, err
				}
				body, exists = update.Apply(body, exists, &rec)
			}
			if exists {
				return table.Row{Key: key, Body: body, PageTS: 0}, true, nil
			}
		}
	}
}

// Drain consumes the query and returns the row count and completion time.
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
