package lsm

// A simulated LSM tree on the SSD: TestLSMMeasuredWriteAmplification checks
// the paper's analytic estimate, Config.TheoreticalWritesPerUpdate (the
// figure the lsm experiment reports), against the writes it measures.

import (
	"fmt"
	"math"
	"sort"

	"masm/internal/extsort"
	"masm/internal/sim"
	"masm/internal/storage"
	"masm/internal/table"
	"masm/internal/update"
)

// level is one SSD-resident tree: a sorted record slice plus its byte
// size. Record data is mirrored in memory for correctness; all I/O costs
// are charged against the SSD volume.
type level struct {
	recs  []update.Record
	bytes int64
}

// Tree is an LSM update cache attached to one table.
type Tree struct {
	cfg Config
	tbl *table.Table
	ssd *storage.Volume

	c0      []update.Record
	c0Bytes int
	levels  []level
	nextTS  int64

	applied         int64
	recordWritesSSD int64
	bytesWrittenSSD int64
}

// New creates an LSM update cache.
func New(cfg Config, tbl *table.Table, ssd *storage.Volume) (*Tree, error) {
	if cfg.MemBytes <= 0 || cfg.SSDBytes <= 0 || cfg.Levels < 1 {
		return nil, fmt.Errorf("lsm: bad config %+v", cfg)
	}
	if cfg.IOSize <= 0 {
		cfg.IOSize = 64 << 10
	}
	return &Tree{cfg: cfg, tbl: tbl, ssd: ssd, levels: make([]level, cfg.Levels)}, nil
}

// Applied returns the number of updates accepted.
func (t *Tree) Applied() int64 { return t.applied }

// WritesPerUpdate returns the measured average SSD writes per update
// record — the quantity the paper's §2.3 analysis bounds.
func (t *Tree) WritesPerUpdate() float64 {
	if t.applied == 0 {
		return 0
	}
	return float64(t.recordWritesSSD) / float64(t.applied)
}

// BytesWrittenSSD returns total bytes written to flash.
func (t *Tree) BytesWrittenSSD() int64 { return t.bytesWrittenSSD }

// levelCap returns the byte capacity of SSD level i (0-based).
func (t *Tree) levelCap(i int) int64 {
	r := t.cfg.Ratio()
	return int64(float64(t.cfg.MemBytes) * math.Pow(r, float64(i+1)))
}

// ApplyAuto assigns a timestamp and inserts the update into C0,
// propagating rolling merges as levels fill.
func (t *Tree) ApplyAuto(at sim.Time, rec update.Record) (sim.Time, error) {
	t.nextTS++
	rec.TS = t.nextTS
	t.c0 = append(t.c0, rec)
	t.c0Bytes += update.EncodedSize(&rec)
	t.applied++
	if t.c0Bytes < t.cfg.MemBytes {
		return at, nil
	}
	return t.spill(at)
}

// spill merges C0 into C1 and cascades overflowing levels downward. Each
// rolling merge rewrites the entire destination level sequentially — the
// source of LSM's write amplification.
func (t *Tree) spill(at sim.Time) (sim.Time, error) {
	sort.SliceStable(t.c0, func(i, j int) bool { return update.Less(&t.c0[i], &t.c0[j]) })
	incoming := t.c0
	t.c0 = nil
	t.c0Bytes = 0
	for i := 0; i < t.cfg.Levels; i++ {
		lv := &t.levels[i]
		merged := mergeSorted(lv.recs, incoming)
		var bytes int64
		for k := range merged {
			bytes += int64(update.EncodedSize(&merged[k]))
		}
		// Rewriting level i costs sequential SSD writes of its whole new
		// content.
		var err error
		at, err = t.chargeSequentialWrite(at, bytes, int64(len(merged)))
		if err != nil {
			return at, err
		}
		if bytes <= t.levelCap(i) || i == t.cfg.Levels-1 {
			lv.recs = merged
			lv.bytes = bytes
			return at, nil
		}
		// Level overflows: it becomes the incoming stream for the next
		// level and empties. (A real LSM moves a rolling window; emptying
		// whole levels gives the same asymptotic write counts with
		// simpler bookkeeping.)
		incoming = merged
		lv.recs = nil
		lv.bytes = 0
	}
	return at, nil
}

// chargeSequentialWrite accounts a sequential flash write of n bytes.
func (t *Tree) chargeSequentialWrite(at sim.Time, bytes, records int64) (sim.Time, error) {
	t.recordWritesSSD += records
	t.bytesWrittenSSD += bytes
	off := int64(0)
	remaining := bytes
	for remaining > 0 {
		n := int64(t.cfg.IOSize)
		if n > remaining {
			n = remaining
		}
		c, err := t.ssd.WriteAt(at, make([]byte, n), off)
		if err != nil {
			return at, err
		}
		at = c.End
		off += n
		remaining -= n
	}
	return at, nil
}

func mergeSorted(a, b []update.Record) []update.Record {
	out := make([]update.Record, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if update.Less(&a[i], &b[j]) {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// Query merges a range scan with the cached updates. Unlike IU, every
// level supports an index range scan, so the SSD access pattern is
// sequential within each level (the paper grants LSM this advantage; its
// failing is write amplification, not query overhead). The level streams
// are merged by the same batched loser-tree engine MaSM uses, so the two
// schemes' merge CPU costs are directly comparable in wall-clock
// benchmarks.
type Query struct {
	qts  int64
	data *table.Scanner
	// upd is the batch window over the merged update stream; level reads
	// are charged up-front in NewQuery, so batching here is pure
	// consumer-side CPU saving.
	upd      *update.BatchReader
	ssdTime  sim.Time
	dataPend *table.Row
	err      error
}

// lsmUpdateBatch is the number of merged update records the query pulls
// per refill.
const lsmUpdateBatch = 256

// NewQuery starts a merged range scan of [begin, end].
func (t *Tree) NewQuery(at sim.Time, begin, end uint64) (*Query, error) {
	qts := t.nextTS + 1
	// Collect the visible updates per level plus C0; charge sequential
	// SSD reads proportional to the bytes each level contributes.
	var iters []update.Iterator
	ssdTime := at
	for i := range t.levels {
		lv := &t.levels[i]
		lo := sort.Search(len(lv.recs), func(k int) bool { return lv.recs[k].Key >= begin })
		hi := sort.Search(len(lv.recs), func(k int) bool { return lv.recs[k].Key > end })
		if lo >= hi {
			continue
		}
		span := lv.recs[lo:hi]
		var bytes int64
		for k := range span {
			bytes += int64(update.EncodedSize(&span[k]))
		}
		readEnd, err := t.chargeSequentialRead(at, bytes)
		if err != nil {
			return nil, err
		}
		if readEnd > ssdTime {
			ssdTime = readEnd
		}
		iters = append(iters, update.NewSliceIterator(span))
	}
	c0 := make([]update.Record, 0)
	for _, r := range t.c0 {
		if r.Key >= begin && r.Key <= end {
			c0 = append(c0, r)
		}
	}
	sort.SliceStable(c0, func(i, j int) bool { return update.Less(&c0[i], &c0[j]) })
	iters = append(iters, update.NewSliceIterator(c0))
	merged, err := extsort.NewMerger(iters...)
	if err != nil {
		return nil, err
	}
	return &Query{
		qts:     qts,
		data:    t.tbl.NewScanner(at, begin, end),
		upd:     update.NewBatchReader(merged, lsmUpdateBatch),
		ssdTime: ssdTime,
	}, nil
}

func (t *Tree) chargeSequentialRead(at sim.Time, bytes int64) (sim.Time, error) {
	off := int64(0)
	for bytes > 0 {
		n := int64(t.cfg.IOSize)
		if n > bytes {
			n = bytes
		}
		c, err := t.ssd.ReadAt(at, make([]byte, n), off)
		if err != nil {
			return at, err
		}
		at = c.End
		off += n
		bytes -= n
	}
	return at, nil
}

// Time returns the query completion time so far (disk overlapped with the
// level reads).
func (q *Query) Time() sim.Time { return sim.MaxTime(q.data.Time(), q.ssdTime) }

// Next returns the next fresh row.
func (q *Query) Next() (table.Row, bool, error) {
	if q.err != nil {
		return table.Row{}, false, q.err
	}
	for {
		if q.dataPend == nil {
			if row, ok := q.data.Next(); ok {
				q.dataPend = &row
			}
		}
		u, haveUpd, err := q.upd.Peek()
		if err != nil {
			q.err = err
			return table.Row{}, false, err
		}
		switch {
		case q.dataPend == nil && !haveUpd:
			return table.Row{}, false, nil
		case q.dataPend != nil && (!haveUpd || q.dataPend.Key < u.Key):
			row := *q.dataPend
			q.dataPend = nil
			return row, true, nil
		default:
			key := u.Key
			var body []byte
			exists := false
			if q.dataPend != nil && q.dataPend.Key == key {
				body, exists = q.dataPend.Body, true
				q.dataPend = nil
			}
			for haveUpd && u.Key == key {
				if u.TS < q.qts {
					body, exists = update.Apply(body, exists, &u)
				}
				q.upd.Consume()
				if u, haveUpd, err = q.upd.Peek(); err != nil {
					q.err = err
					return table.Row{}, false, err
				}
			}
			if exists {
				return table.Row{Key: key, Body: body, PageTS: 0}, true, nil
			}
		}
	}
}

// Drain consumes the query, returning row count and completion time.
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
