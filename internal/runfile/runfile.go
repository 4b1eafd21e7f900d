// Package runfile implements MaSM's materialized sorted runs (paper §3.1):
// immutable sequences of update records in (key, timestamp) order stored on
// the SSD, each with a read-only run index mapping keys to byte offsets so
// a range scan retrieves only the SSD pages that overlap its key range.
//
// Runs are written strictly sequentially (design goal 2: no random SSD
// writes) and never modified afterwards; they are deleted only when a
// migration has folded their contents into the main data.
//
// There is one on-disk format (FormatVersion), written by every engine,
// simulated or file-backed: the records, then a zone-map block holding the
// run index, the per-granule zone maps and the data's checksum
// (zoneblock.go). LoadIndex and LoadIndexOffline, which read that block
// back and verify the data against it, are the only ways to open a run.
package runfile

import (
	"fmt"
	"hash/crc32"
	"sort"

	"masm/internal/sim"
	"masm/internal/storage"
	"masm/internal/update"
)

// FormatVersion is the on-disk format version of a run: a dense sequence
// of update records in the internal/update wire format, in (key, ts) order,
// followed inside the same extent by the zone-map block (zoneblock.go) at
// byte offset Size, IndexSize bytes long. It is recorded in the redo log's
// run metadata so recovery refuses runs written in any other layout.
const FormatVersion = 2

// castagnoli is the CRC-32C table used to checksum run data; the redo log
// uses the same polynomial for its record framing.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Config fixes the physical layout of runs.
type Config struct {
	// IOSize is the unit of sequential SSD I/O when writing runs and when
	// scanning large ranges (paper: 64 KB-sized I/Os to SSDs).
	IOSize int
	// IndexGranularity is the spacing, in bytes of run data, between
	// consecutive run-index entries as built. Coarser effective
	// granularities are obtained at scan time by subsampling, so building
	// at fine granularity (4 KB, one entry per SSD page) supports both of
	// the paper's configurations.
	IndexGranularity int
}

// DefaultConfig matches the paper's prototype: 64 KB SSD I/O, fine-grain
// (4 KB) index construction.
func DefaultConfig() Config {
	return Config{IOSize: 64 << 10, IndexGranularity: 4 << 10}
}

func (c *Config) validate() error {
	if c.IOSize <= 0 {
		return fmt.Errorf("runfile: non-positive I/O size %d", c.IOSize)
	}
	if c.IndexGranularity <= 0 || c.IndexGranularity > c.IOSize {
		return fmt.Errorf("runfile: index granularity %d must be in (0, %d]", c.IndexGranularity, c.IOSize)
	}
	return nil
}

// indexEntry records the smallest key at or after a granule boundary and
// the byte offset (record-aligned) where that key's records begin.
type indexEntry struct {
	key uint64
	off int64
}

// zoneEntry is the zone map of one granule: the i'th entry summarizes the
// records in byte range [index[i].off, index[i+1].off) — min/max key,
// min/max timestamp, total record count, and how many of those records
// are not deletions (the alive count, usable by aggregates but never by
// pruning: a granule of pure deletes must still reach the merge to mask
// base rows).
type zoneEntry struct {
	minKey, maxKey uint64
	minTS, maxTS   int64
	alive, count   int32
}

func (z *zoneEntry) add(r *update.Record) {
	if z.count == 0 {
		z.minKey, z.maxKey = r.Key, r.Key
		z.minTS, z.maxTS = r.TS, r.TS
	} else {
		if r.Key < z.minKey {
			z.minKey = r.Key
		}
		if r.Key > z.maxKey {
			z.maxKey = r.Key
		}
		if r.TS < z.minTS {
			z.minTS = r.TS
		}
		if r.TS > z.maxTS {
			z.maxTS = r.TS
		}
	}
	z.count++
	if r.Op != update.Delete {
		z.alive++
	}
}

// Segment is one contiguous byte range of run data a predicated scan must
// read; zone-map pruning turns the single scanBounds window into a list
// of surviving segments.
type Segment struct {
	Start, Limit int64
}

// Run is one immutable materialized sorted run plus its in-memory run
// index. (The paper keeps run indexes cached in memory; their SSD space
// overhead is negligible, §3.5.)
type Run struct {
	ID    int64
	Off   int64 // byte offset of the run's data within the SSD volume
	Size  int64 // data size in bytes
	Count int64 // number of update records
	// Table identifies the catalog table that owns this run when several
	// tables materialize runs onto one shared SSD volume (the store's
	// partition's table id). Ownership is metadata: the extent
	// itself comes from the shared allocator, and the WAL's table-tagged
	// records route the run back to its owner during recovery.
	Table uint32

	MinKey, MaxKey uint64
	MinTS, MaxTS   int64
	// Passes is 1 for runs generated directly from the in-memory buffer
	// and 2 for runs produced by merging 1-pass runs (paper §3.3).
	Passes int
	// CRC is the CRC-32C of the run's Size data bytes, computed as the
	// run was written. Crash recovery verifies it while rebuilding the
	// run index, catching corrupted or half-written runs on real storage.
	CRC uint32
	// IndexSize is the byte length of the persisted zone-map block that
	// follows the data inside the extent.
	IndexSize int64

	cfg   Config
	vol   *storage.Volume
	index []indexEntry
	zones []zoneEntry
	// filter is the in-memory key filter point lookups consult (point.go).
	filter keyFilter
}

// Writer streams update records in (key, ts) order into a new run,
// writing sequentially in IOSize units and building the run index.
type Writer struct {
	cfg Config
	vol *storage.Volume
	id  int64
	sw  *storage.SequentialWriter

	base    int64
	buf     []byte
	written int64
	crc     uint32
	count   int64
	index   []indexEntry
	zones   []zoneEntry
	nextIdx int64 // next granule boundary (bytes) needing an index entry
	// hashes holds KeyHash of each distinct key appended; Close sizes the
	// key filter from the final record count and fills it from these.
	hashes []uint64

	minKey, maxKey uint64
	minTS, maxTS   int64
	lastKey        uint64
	lastTS         int64
}

// NewWriter starts writing a run with the given id at byte offset off of
// vol, with local virtual time at.
func NewWriter(vol *storage.Volume, off int64, at sim.Time, id int64, cfg Config) (*Writer, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Writer{
		cfg:  cfg,
		vol:  vol,
		id:   id,
		sw:   storage.NewSequentialWriter(vol, off, at),
		base: off,
		buf:  make([]byte, 0, cfg.IOSize),
	}, nil
}

// Append adds the next record, which must not sort before its predecessor.
func (w *Writer) Append(r update.Record) error {
	if w.count > 0 {
		prev := update.Record{Key: w.lastKey, TS: w.lastTS}
		if update.Less(&r, &prev) {
			return fmt.Errorf("runfile: records out of order: (%d,%d) after (%d,%d)",
				r.Key, r.TS, w.lastKey, w.lastTS)
		}
	}
	recOff := w.written + int64(len(w.buf))
	if recOff >= w.nextIdx {
		w.index = append(w.index, indexEntry{key: r.Key, off: recOff})
		w.zones = append(w.zones, zoneEntry{})
		w.nextIdx = recOff + int64(w.cfg.IndexGranularity)
		w.nextIdx -= w.nextIdx % int64(w.cfg.IndexGranularity)
		if w.nextIdx <= recOff {
			w.nextIdx += int64(w.cfg.IndexGranularity)
		}
	}
	w.zones[len(w.zones)-1].add(&r)
	if w.count == 0 || r.Key != w.lastKey {
		w.hashes = append(w.hashes, KeyHash(r.Key))
	}
	w.buf = update.AppendEncode(w.buf, &r)
	if w.count == 0 {
		w.minKey, w.minTS = r.Key, r.TS
		w.maxTS = r.TS
	}
	if r.TS < w.minTS {
		w.minTS = r.TS
	}
	if r.TS > w.maxTS {
		w.maxTS = r.TS
	}
	w.maxKey = r.Key
	w.lastKey, w.lastTS = r.Key, r.TS
	w.count++
	for len(w.buf) >= w.cfg.IOSize {
		if err := w.flushChunk(w.cfg.IOSize); err != nil {
			return err
		}
	}
	return nil
}

func (w *Writer) flushChunk(n int) error {
	if _, err := w.sw.Write(w.buf[:n]); err != nil {
		return err
	}
	w.crc = crc32.Update(w.crc, castagnoli, w.buf[:n])
	w.written += int64(n)
	w.buf = append(w.buf[:0], w.buf[n:]...)
	return nil
}

// Close flushes the tail and returns the completed run and the virtual
// time of the last write. The zone-map block is written sequentially right
// after the data — the run's Size and CRC still cover only the data bytes;
// the block is described by IndexSize.
func (w *Writer) Close(passes int) (*Run, sim.Time, error) {
	if len(w.buf) > 0 {
		if err := w.flushChunk(len(w.buf)); err != nil {
			return nil, 0, err
		}
	}
	r := &Run{
		ID:     w.id,
		Off:    w.base,
		Size:   w.written,
		Count:  w.count,
		MinKey: w.minKey,
		MaxKey: w.maxKey,
		MinTS:  w.minTS,
		MaxTS:  w.maxTS,
		Passes: passes,
		CRC:    w.crc,
		cfg:    w.cfg,
		vol:    w.vol,
		index:  w.index,
		zones:  w.zones,
		filter: newKeyFilter(w.count),
	}
	for _, h := range w.hashes {
		r.filter.add(h)
	}
	block := encodeZoneBlock(w.index, w.zones, w.count, w.crc)
	if _, err := w.sw.Write(block); err != nil {
		return nil, 0, err
	}
	r.IndexSize = int64(len(block))
	return r, w.sw.Time(), nil
}

// WriteRun materializes recs (already in (key, ts) order) as a run.
func WriteRun(vol *storage.Volume, off int64, at sim.Time, id int64,
	recs []update.Record, cfg Config) (*Run, sim.Time, error) {
	w, err := NewWriter(vol, off, at, id, cfg)
	if err != nil {
		return nil, 0, err
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			return nil, 0, err
		}
	}
	return w.Close(1)
}

// scanBounds uses the run index, subsampled to effective granularity
// gran, to bound the byte range that can contain keys in [begin, end].
func (r *Run) scanBounds(begin, end uint64, gran int) (int64, int64) {
	// An inverted range selects nothing. Without this guard an inverted
	// range overlapping the run's key span produced an inverted byte
	// window (start past limit): harmless for Scanner, which stops at
	// off >= limit, but ReadCost reported negative bytes.
	if begin > end {
		return 0, 0
	}
	if r.Count == 0 || begin > r.MaxKey || end < r.MinKey {
		return 0, 0
	}
	step := gran / r.cfg.IndexGranularity
	if step < 1 {
		step = 1
	}
	// Collect the subsampled entry list indices lazily via index math.
	n := (len(r.index) + step - 1) / step
	at := func(i int) indexEntry { return r.index[i*step] }
	// start: last subsampled entry with key strictly below begin (records
	// equal to begin may start in the preceding granule).
	lo := sort.Search(n, func(i int) bool { return at(i).key >= begin })
	startIdx := lo - 1
	if startIdx < 0 {
		startIdx = 0
	}
	start := at(startIdx).off
	// limit: first subsampled entry with key strictly above end.
	hi := sort.Search(n, func(i int) bool { return at(i).key > end })
	var limit int64
	if hi >= n {
		limit = r.Size
	} else {
		limit = at(hi).off
	}
	return start, limit
}

// Scanner is a Run_scan operator (paper §3.2): it iterates the records of
// one run that fall in [begin, end] with timestamps below the query's,
// reading only the SSD pages the run index selects.
//
// Scanner implements update.BatchIterator: NextBatch decodes a batch of
// visible records per call — up to a granule's worth, bounded by the
// destination capacity — instead of one. Reads stay refill-on-demand: a
// device request is issued only when a call finds no complete record
// buffered, so the sequence of simulated I/Os is identical whether the
// scanner is consumed record-at-a-time or in batches.
type Scanner struct {
	r          *Run
	begin, end uint64
	queryTS    int64
	gran       int
	pred       *update.Pred

	segs  []Segment
	seg   int   // next unentered segment
	off   int64 // next unread byte (absolute within run)
	limit int64
	buf   []byte // undecoded bytes carried between reads
	now   sim.Time
	err   error
	done  bool

	// bufs, when set (UseBufs), supplies the read buffers; mem is the one
	// buf lies in, and used reports that a record decoded from it was
	// handed out.
	bufs Bufs
	mem  []byte
	used bool

	skipKey   uint64
	skipTS    int64
	skipValid bool

	skipped  int64 // effective granules pruned before any read was issued
	filtered int64 // decoded records dropped by the pushdown predicate

	one [1]update.Record // scratch for Next delegating to NextBatch
}

// Scan creates a scanner over [begin, end] for a query at queryTS, using
// effective index granularity gran (bytes). gran selects between the
// paper's coarse-grain and fine-grain run index configurations.
func (r *Run) Scan(at sim.Time, begin, end uint64, queryTS int64, gran int) *Scanner {
	return r.ScanPred(at, begin, end, queryTS, gran, nil)
}

// ScanPred is Scan with a pushdown predicate: zone maps prune whole
// granules (their device reads are never submitted) and surviving records
// are still filtered by pred before they leave the scanner, so nothing a
// predicate excludes ever reaches the merge. A nil pred makes ScanPred
// behave exactly like Scan — one contiguous window, no pruning.
func (r *Run) ScanPred(at sim.Time, begin, end uint64, queryTS int64, gran int, pred *update.Pred) *Scanner {
	segs, skipped := r.PlanSegments(begin, end, queryTS, gran, pred)
	s := &Scanner{
		r: r, begin: begin, end: end, queryTS: queryTS, gran: gran, pred: pred,
		segs: segs, now: at, skipped: skipped,
	}
	if len(segs) > 0 {
		s.off, s.limit = segs[0].Start, segs[0].Limit
		s.seg = 1
	}
	return s
}

// PlanSegments computes the byte segments of the run a scan of
// [begin, end] at queryTS with pushdown predicate pred must read, at
// effective granularity gran, plus the number of effective granules the
// zone maps pruned. With a nil pred the plan is the single scanBounds
// window and nothing is pruned, keeping unpredicated scans bit-identical
// to the pre-zone-map engine.
func (r *Run) PlanSegments(begin, end uint64, queryTS int64, gran int, pred *update.Pred) ([]Segment, int64) {
	start, limit := r.scanBounds(begin, end, gran)
	if start >= limit {
		return nil, 0
	}
	if pred == nil {
		return []Segment{{Start: start, Limit: limit}}, 0
	}
	step := gran / r.cfg.IndexGranularity
	if step < 1 {
		step = 1
	}
	n := (len(r.index) + step - 1) / step
	var (
		segs    []Segment
		skipped int64
	)
	for gi := 0; gi < n; gi++ {
		gOff := r.index[gi*step].off
		gNext := r.Size
		if gi+1 < n {
			gNext = r.index[(gi+1)*step].off
		}
		if gNext <= start || gOff >= limit {
			continue // outside the key-range window
		}
		// Zone span of the effective granule: fold the step base zones.
		lo := gi * step
		hi := lo + step
		if hi > len(r.zones) {
			hi = len(r.zones)
		}
		span := r.zones[lo]
		for _, z := range r.zones[lo+1 : hi] {
			if z.count == 0 {
				continue
			}
			if z.minKey < span.minKey {
				span.minKey = z.minKey
			}
			if z.maxKey > span.maxKey {
				span.maxKey = z.maxKey
			}
			if z.minTS < span.minTS {
				span.minTS = z.minTS
			}
		}
		// Prune when no key in the granule can match, or when every record
		// in it committed at or after the query's snapshot.
		if !pred.Overlaps(span.minKey, span.maxKey) || span.minTS >= queryTS {
			skipped++
			continue
		}
		if len(segs) > 0 && segs[len(segs)-1].Limit == gOff {
			segs[len(segs)-1].Limit = gNext
		} else {
			segs = append(segs, Segment{Start: gOff, Limit: gNext})
		}
	}
	return segs, skipped
}

// Bufs supplies a Scanner's read buffers in place of fresh allocations.
// A scanner reads into one buffer until a read no longer fits behind the
// bytes it carries, then copies the partial record it carries into a new
// one and retires the old. Records the scanner returned before that call
// may still alias a retired buffer, so the supplier must keep it intact
// until their consumers are past them; records it returns afterwards
// never do.
type Bufs interface {
	// Get returns an empty buffer with capacity at least n.
	Get(n int) []byte
	// Retire takes back a buffer the scanner has moved off or finished
	// with; used reports whether a record decoded from it was returned.
	Retire(buf []byte, used bool)
}

// UseBufs makes the scanner read into buffers from b; it must precede the
// first read. Release hands the last one back.
func (s *Scanner) UseBufs(b Bufs) { s.bufs = b }

// Release retires the scanner's current buffer to its Bufs, ending the
// scan. Without UseBufs it only ends the scan.
func (s *Scanner) Release() {
	s.retire()
	s.buf, s.done = nil, true
}

// retire hands the current buffer back to Bufs, if the scanner holds one.
func (s *Scanner) retire() {
	if s.mem != nil {
		s.bufs.Retire(s.mem, s.used)
		s.mem, s.used = nil, false
	}
}

// Stats returns how many effective granules the zone maps pruned and how
// many decoded records the pushdown predicate filtered below the merge.
func (s *Scanner) Stats() (granulesSkipped, recordsFiltered int64) {
	return s.skipped, s.filtered
}

// Time returns the scanner's local virtual time.
func (s *Scanner) Time() sim.Time { return s.now }

// ioSize returns the read unit: large sequential I/O when much data
// remains, a single granule when the indexed window is small. This is what
// makes the fine-grain index pay off for small ranges: the whole window
// collapses to one 4 KB read per run.
func (s *Scanner) ioSize() int64 {
	remaining := s.limit - s.off
	io := int64(s.r.cfg.IOSize)
	if remaining < io {
		// Round up to granule.
		g := int64(s.gran)
		n := (remaining + g - 1) / g * g
		if n <= 0 {
			n = g
		}
		if n > remaining {
			n = remaining
		}
		return n
	}
	return io
}

// Next returns the next visible record.
func (s *Scanner) Next() (update.Record, bool, error) {
	n, err := s.NextBatch(s.one[:])
	if err != nil {
		return update.Record{}, false, err
	}
	if n == 0 {
		return update.Record{}, false, nil
	}
	return s.one[0], true, nil
}

// NextBatch fills dst with the next visible records and returns how many
// it wrote; 0 with a nil error means the scan is finished. It decodes from
// the carry buffer first and issues a device read only when no complete
// record is buffered and none has been produced yet, so batch consumption
// leaves the simulated I/O sequence untouched. A call that returns no
// record retires a finished scan's buffer (Bufs).
func (s *Scanner) NextBatch(dst []update.Record) (int, error) {
	if s.done || s.err != nil || len(dst) == 0 {
		if s.done {
			s.retire()
		}
		return 0, s.err
	}
	out := 0
	for {
		// Decode whatever is buffered first.
		for len(s.buf) >= update.HeaderSize && out < len(dst) {
			if _, plen := update.DecodeHeader(s.buf); len(s.buf) < update.HeaderSize+plen {
				break // partial record at buffer end: need more bytes
			}
			rec, n, err := update.Decode(s.buf)
			if err != nil {
				s.err = fmt.Errorf("runfile: run %d: %w", s.r.ID, err)
				return 0, s.err
			}
			s.buf = s.buf[n:]
			if rec.Key > s.end {
				s.done = true
				break
			}
			if rec.Key < s.begin || rec.TS >= s.queryTS {
				continue
			}
			if s.pred != nil && !s.pred.Match(rec.Key) {
				s.filtered++
				continue
			}
			if s.skipValid {
				cur := update.Record{Key: rec.Key, TS: rec.TS}
				bound := update.Record{Key: s.skipKey, TS: s.skipTS}
				if !update.Less(&bound, &cur) {
					continue // at or before resume point
				}
			}
			dst[out] = rec
			out++
		}
		if out > 0 {
			// Something to deliver: return rather than read ahead, so the
			// refill points match record-at-a-time consumption exactly.
			s.used = true
			return out, nil
		}
		if s.done {
			s.retire()
			return 0, nil
		}
		if s.off >= s.limit {
			if len(s.buf) > 0 {
				// Index entries are record-aligned, so a partial record
				// at the window end means corruption, not truncation.
				s.err = fmt.Errorf("runfile: run %d: %d undecodable bytes at scan end", s.r.ID, len(s.buf))
				return 0, s.err
			}
			if s.seg < len(s.segs) {
				// Hop over the pruned gap: the skipped granules' reads are
				// simply never submitted to the device.
				s.off, s.limit = s.segs[s.seg].Start, s.segs[s.seg].Limit
				s.seg++
				continue
			}
			s.done = true
			s.retire()
			return 0, nil
		}
		n := s.ioSize()
		if s.off+n > s.limit {
			n = s.limit - s.off
		}
		if err := s.fill(int(n)); err != nil {
			return 0, err
		}
	}
}

// fill reads the next n bytes of the indexed window into the tail of the
// carry buffer. Earlier decoded records alias bytes before the buffer's
// current position, which the append never overwrites: when the read does
// not fit, the carried partial record is copied into a new buffer (from
// Bufs, retiring the old one, or freshly allocated to exactly what is
// read), leaving the old bytes to the records that alias them, so
// handed-out payloads stay valid.
func (s *Scanner) fill(n int) error {
	old := len(s.buf)
	if cap(s.buf)-old < n {
		var grown []byte
		if s.bufs != nil {
			grown = append(s.bufs.Get(old+n), s.buf...)
			s.retire()
			s.mem = grown
		} else {
			grown = append(make([]byte, 0, old+n), s.buf...)
		}
		s.buf = grown
	}
	s.buf = s.buf[:old+n]
	c, err := s.r.vol.ReadAt(s.now, s.buf[old:], s.r.Off+s.off)
	if err != nil {
		s.buf = s.buf[:old]
		s.err = err
		return err
	}
	s.now = c.End
	s.off += int64(n)
	return nil
}
