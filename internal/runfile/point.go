package runfile

import (
	"fmt"
	"math/bits"

	"masm/internal/sim"
	"masm/internal/update"
)

// Point lookups. A one-key read would otherwise pay one SSD read in every
// run whose key span covers the key; with tens of runs that is the whole
// cost of the read. Each run therefore carries an in-memory Bloom filter
// over its keys, consulted only by Lookup's callers (range scans never
// look at it). The filter is not part of the on-disk format: the writer
// fills it as records are appended and loadIndexScan rebuilds it inside
// the checksum sweep it makes over every data byte anyway. Both size it
// from the run's record count, so the two are bit-identical.
const (
	filterBitsPerRecord = 10
	filterProbes        = 7 // ≈ ln2 × bits per record: ~0.8 % false positives
)

// keyFilter is the Bloom filter's bit array; nil for an empty run.
type keyFilter []uint64

func newKeyFilter(records int64) keyFilter {
	if records <= 0 {
		return nil
	}
	return make(keyFilter, FilterBytesFor(records)/8)
}

// FilterBytesFor is the size of the key filter of a run of that many
// records, whether its writer built it or an open rebuilt it.
func FilterBytesFor(records int64) int64 {
	return (records*filterBitsPerRecord + 63) / 64 * 8
}

// KeyHash is the hash the filters are built and probed with; a lookup
// computes it once and offers it to every run.
func KeyHash(key uint64) uint64 {
	// splitmix64 finalizer.
	key ^= key >> 30
	key *= 0xbf58476d1ce4e5b9
	key ^= key >> 27
	key *= 0x94d049bb133111eb
	return key ^ key>>31
}

// The probes of hash h are double-hashed — h, h+step, h+2·step, … — and
// a multiply-shift maps each onto the bit array without a division.
func filterStep(h uint64) uint64 { return h*0x9e3779b97f4a7c15 | 1 }

func (f keyFilter) add(h uint64) {
	nbits, step := uint64(len(f))*64, filterStep(h)
	for i := 0; i < filterProbes; i++ {
		bit, _ := bits.Mul64(h, nbits)
		f[bit>>6] |= 1 << (bit & 63)
		h += step
	}
}

func (f keyFilter) has(h uint64) bool {
	if len(f) == 0 {
		return false
	}
	nbits, step := uint64(len(f))*64, filterStep(h)
	for i := 0; i < filterProbes; i++ {
		bit, _ := bits.Mul64(h, nbits)
		if f[bit>>6]&(1<<(bit&63)) == 0 {
			return false
		}
		h += step
	}
	return true
}

// filterBuilder feeds a run's keys into its filter as the data streams
// by in arbitrary chunks: records are walked header by header, in place,
// carrying only a header split across two chunks. Keys repeat only
// adjacently (runs are key-ordered), so each distinct key is hashed once.
type filterBuilder struct {
	f       keyFilter
	hdr     [update.HeaderSize]byte
	have    int // bytes of a split header held in hdr
	skip    int // payload bytes of the current record still to pass
	lastKey uint64
	any     bool
}

func (b *filterBuilder) addKey(key uint64) {
	if b.any && key == b.lastKey {
		return
	}
	b.lastKey, b.any = key, true
	b.f.add(KeyHash(key))
}

func (b *filterBuilder) feed(chunk []byte) {
	for len(chunk) > 0 {
		if b.skip > 0 {
			n := min(b.skip, len(chunk))
			chunk, b.skip = chunk[n:], b.skip-n
			continue
		}
		hdr := chunk
		if b.have > 0 || len(chunk) < update.HeaderSize {
			n := copy(b.hdr[b.have:], chunk)
			chunk, b.have = chunk[n:], b.have+n
			if b.have < update.HeaderSize {
				return
			}
			hdr, b.have = b.hdr[:], 0
		} else {
			chunk = chunk[update.HeaderSize:]
		}
		key, plen := update.DecodeHeader(hdr)
		b.skip = plen
		b.addKey(key)
	}
}

// FilterBytes returns the DRAM the run's key filter occupies.
func (r *Run) FilterBytes() int64 { return int64(len(r.filter)) * 8 }

// Admits reports whether a lookup of key (hash = KeyHash(key)) reading at
// qts can find anything in this run: some record predates qts, the key
// lies inside the run's span, and the filter does not rule it out. It
// touches memory only, so a caller may evaluate it under a latch and pin
// just the runs that pass.
func (r *Run) Admits(key, hash uint64, qts int64) bool {
	return r.MinTS < qts && key >= r.MinKey && key <= r.MaxKey && r.filter.has(hash)
}

// PointBuf is the reusable scratch of point lookups: the records found so
// far and the read windows their payloads alias.
type PointBuf struct {
	Recs []update.Record
	buf  []byte
}

// maxPointBufRetain bounds the read buffer a PointBuf keeps across
// lookups; a window larger than this (a long same-key chain) is read into
// a buffer that is dropped afterwards.
const maxPointBufRetain = 1 << 20

// Reset empties the buffer for the next lookup. Records handed out before
// the call must no longer be used.
func (p *PointBuf) Reset() {
	clear(p.Recs)
	p.Recs = p.Recs[:0]
	if cap(p.buf) > maxPointBufRetain {
		p.buf = nil
	}
	p.buf = p.buf[:0]
}

// Lookup appends to p.Recs, oldest first, the run's records for key with
// timestamps below qts, and returns the completion time of its read. The
// run index bounds the bytes that can hold the key (at effective
// granularity gran, as for a scan) and the whole window is fetched with
// one read issued at at. It does not consult the filter: callers decide
// with Admits first.
func (r *Run) Lookup(at sim.Time, key uint64, qts int64, gran int, p *PointBuf) (sim.Time, error) {
	start, limit := r.scanBounds(key, key, gran)
	if start >= limit {
		return at, nil
	}
	n := int(limit - start)
	old := len(p.buf)
	if cap(p.buf)-old < n {
		// Records already found alias the old array, which stays theirs;
		// nothing in it is needed here.
		p.buf, old = make([]byte, 0, max(n, 2*cap(p.buf))), 0
	}
	window := p.buf[old : old+n]
	c, err := r.vol.ReadAt(at, window, r.Off+start)
	if err != nil {
		return at, err
	}
	found := len(p.Recs)
	for len(window) > 0 {
		rec, sz, err := update.Decode(window)
		if err != nil {
			// Index entries are record-aligned, so the window holds whole
			// records only.
			return at, fmt.Errorf("runfile: run %d: lookup window [%d,%d): %w", r.ID, start, limit, err)
		}
		window = window[sz:]
		if rec.Key > key {
			break
		}
		if rec.Key == key && rec.TS < qts {
			p.Recs = append(p.Recs, rec)
		}
	}
	if len(p.Recs) > found {
		p.buf = p.buf[:old+n] // keep the bytes the new records alias
	}
	return c.End, nil
}
