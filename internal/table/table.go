package table

import (
	"fmt"
	"sort"
	"sync"

	"masm/internal/sim"
	"masm/internal/storage"
	"masm/internal/update"
)

// Config fixes the physical layout of a table.
type Config struct {
	// PageSize is the data page size in bytes (paper: 4 KB pages on the
	// main-data disk).
	PageSize int
	// ScanIO is the I/O unit of range scans (paper: 1 MB prefetch reads
	// unless the range is smaller).
	ScanIO int
	// FillFraction is the bulk-load fill factor in [0.5, 1]; free space
	// per page absorbs migrated insertions without relocation.
	FillFraction float64
}

// DefaultConfig mirrors the paper's prototype: 4 KB pages, 1 MB scan I/O,
// 90 % fill.
func DefaultConfig() Config {
	return Config{PageSize: 4 << 10, ScanIO: 1 << 20, FillFraction: 0.90}
}

func (c *Config) validate() error {
	if c.PageSize < pageHeaderSize+recHeaderSize {
		return fmt.Errorf("table: page size %d too small", c.PageSize)
	}
	if c.ScanIO < c.PageSize || c.ScanIO%c.PageSize != 0 {
		return fmt.Errorf("table: scan I/O %d must be a multiple of page size %d", c.ScanIO, c.PageSize)
	}
	if c.FillFraction <= 0 || c.FillFraction > 1 {
		return fmt.Errorf("table: fill fraction %v out of (0,1]", c.FillFraction)
	}
	return nil
}

// pageRef locates one page in key order. Pages are clustered: the bulk of
// refs are in both key order and disk order; overflow pages allocated by
// migration break disk order but not key order.
//
// firstKey is the inclusive lower bound of the page's key range — not
// necessarily the smallest key currently on the page: migration may
// insert keys anywhere within the range. The first page's bound is 0 so
// it covers every key below the originally loaded minimum.
type pageRef struct {
	firstKey uint64
	pageNo   int64 // page number within the volume
}

// Table is a heap file of records clustered by key.
type Table struct {
	cfg Config
	vol *storage.Volume

	mu       sync.RWMutex
	refs     []pageRef // sorted by firstKey
	nextPage int64     // allocation cursor (page number)
	rows     int64

	// Shadow-paging slot accounting (see alloc.go): every slot below
	// nextPage is live (named by a ref), free, retired or in-flight.
	free     []int64 // reusable now, sorted ascending
	retired  []int64 // replaced by a ref flip, awaiting durable commit
	inflight map[int64]bool
	migTS    int64 // newest migration stamp a page may carry
}

// Row is one record returned by a scan.
type Row struct {
	Key  uint64
	Body []byte
	// PageTS is the timestamp of the page the row was read from; the
	// merge operator compares it against update timestamps during and
	// after migration.
	PageTS int64
}

// Load bulk-loads a table from records in strictly increasing key order,
// filling each page to cfg.FillFraction. Load does not charge simulated
// time: the paper's tables are populated before the measured experiments.
func Load(vol *storage.Volume, cfg Config, keys []uint64, bodies [][]byte) (*Table, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(keys) != len(bodies) {
		return nil, fmt.Errorf("table: %d keys but %d bodies", len(keys), len(bodies))
	}
	t := &Table{cfg: cfg, vol: vol}
	budget := int(float64(cfg.PageSize-pageHeaderSize) * cfg.FillFraction)
	buf := make([]byte, cfg.PageSize)
	cur := &Page{}
	used := 0
	var prev uint64
	flush := func() error {
		// A table loaded empty still gets its first page: migration applies
		// updates to the pages covering their keys, so with no page at all
		// every cached update would be consumed and dropped.
		if len(cur.Keys) == 0 && len(t.refs) > 0 {
			return nil
		}
		if err := cur.Encode(buf); err != nil {
			return err
		}
		if err := vol.PokeAt(buf, t.nextPage*int64(cfg.PageSize)); err != nil {
			return err
		}
		bound := uint64(0) // the first page covers all keys below the loaded minimum
		if len(t.refs) > 0 {
			bound = cur.Keys[0]
		}
		t.refs = append(t.refs, pageRef{firstKey: bound, pageNo: t.nextPage})
		t.nextPage++
		t.rows += int64(len(cur.Keys))
		cur = &Page{}
		used = 0
		return nil
	}
	for i, k := range keys {
		if i > 0 && k <= prev {
			return nil, fmt.Errorf("table: keys not strictly increasing at %d (%d after %d)", i, k, prev)
		}
		prev = k
		sz := recHeaderSize + len(bodies[i])
		if used+sz > budget && len(cur.Keys) > 0 {
			if err := flush(); err != nil {
				return nil, err
			}
		}
		cur.Keys = append(cur.Keys, k)
		cur.Bodies = append(cur.Bodies, bodies[i])
		used += sz
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return t, nil
}

// Ref is the externally visible form of one page reference: the inclusive
// lower key bound of the page's range and its page number on the volume.
// The refs array is the only table metadata that cannot be derived from
// the volume alone, so durable deployments persist it (manifest) and hand
// it back to Restore on reopen.
type Ref struct {
	FirstKey uint64 `json:"k"`
	PageNo   int64  `json:"p"`
}

// Refs returns a snapshot of the page references in key order.
func (t *Table) Refs() []Ref {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]Ref, len(t.refs))
	for i, r := range t.refs {
		out[i] = Ref{FirstKey: r.firstKey, PageNo: r.pageNo}
	}
	return out
}

// Restore reattaches a table to a volume whose pages were written by a
// previous process, using the persisted page references. rows is the
// persisted record count (a statistic; scans do not depend on it).
func Restore(vol *storage.Volume, cfg Config, refs []Ref, rows int64) (*Table, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	t := &Table{cfg: cfg, vol: vol, rows: rows}
	t.refs = make([]pageRef, len(refs))
	seen := make(map[int64]bool, len(refs))
	for i, r := range refs {
		// Bounds are strictly increasing by construction: load assigns
		// each page its (unique) first key, and an overflow page's bound
		// is its own first key, strictly above its parent's. Equality in
		// a manifest is therefore corruption, and tolerating it would let
		// the binary search pick the wrong page.
		if i > 0 && r.FirstKey <= refs[i-1].FirstKey {
			return nil, fmt.Errorf("table: restore: refs out of key order at %d", i)
		}
		if r.PageNo < 0 || seen[r.PageNo] {
			return nil, fmt.Errorf("table: restore: bad or duplicate page number %d", r.PageNo)
		}
		seen[r.PageNo] = true
		t.refs[i] = pageRef{firstKey: r.FirstKey, pageNo: r.PageNo}
		if r.PageNo >= t.nextPage {
			t.nextPage = r.PageNo + 1
		}
	}
	if pages := t.nextPage * int64(cfg.PageSize); pages > vol.Size() {
		return nil, fmt.Errorf("table: restore: %d pages exceed volume size %d", t.nextPage, vol.Size())
	}
	// The manifest's refs are the sole authority on which slots are live;
	// every other slot below the cursor is free. A crash at any point of a
	// shadow-paged migration therefore leaks no slots: whatever the dying
	// process had allocated, written, or retired is rederived as free here.
	for p := int64(0); p < t.nextPage; p++ {
		if !seen[p] {
			t.free = append(t.free, p)
		}
	}
	return t, nil
}

// Rows returns the number of records in the table.
func (t *Table) Rows() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rows
}

// Pages returns the number of allocated pages.
func (t *Table) Pages() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return int64(len(t.refs))
}

// SizeBytes returns the allocated size in bytes.
func (t *Table) SizeBytes() int64 { return t.Pages() * int64(t.cfg.PageSize) }

// Config returns the table's layout configuration.
func (t *Table) Config() Config { return t.cfg }

// refIndexForKey returns the index of the ref whose page covers key.
// Caller holds t.mu.
func (t *Table) refIndexForKey(key uint64) int {
	i := sort.Search(len(t.refs), func(i int) bool { return t.refs[i].firstKey > key })
	if i == 0 {
		return 0
	}
	return i - 1
}

// snapshotRefs returns the refs covering [begin, end] in key order.
func (t *Table) snapshotRefs(begin, end uint64) []pageRef {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if len(t.refs) == 0 {
		return nil
	}
	lo := t.refIndexForKey(begin)
	hi := sort.Search(len(t.refs), func(i int) bool { return t.refs[i].firstKey > end })
	out := make([]pageRef, hi-lo)
	copy(out, t.refs[lo:hi])
	return out
}

// SpanBounds returns the exclusive upper key bound reached by spanning
// nPages pages (in key order) starting from the page covering begin, and
// whether the span reached the table end. Incremental migration uses it
// to carve page-aligned portions of the key space.
func (t *Table) SpanBounds(begin uint64, nPages int) (endExclusive uint64, last bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if len(t.refs) == 0 {
		return 0, true
	}
	lo := t.refIndexForKey(begin)
	hi := lo + nPages
	if hi >= len(t.refs) {
		return ^uint64(0), true
	}
	return t.refs[hi].firstKey, false
}

// boundAfter returns the first key bound of the page following the one
// whose range starts at firstKey, and whether such a page exists.
func (t *Table) boundAfter(firstKey uint64) (uint64, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	i := sort.Search(len(t.refs), func(i int) bool { return t.refs[i].firstKey > firstKey })
	if i >= len(t.refs) {
		return 0, false
	}
	return t.refs[i].firstKey, true
}

// readPage reads and decodes one page, charging simulated time.
func (t *Table) readPage(at sim.Time, pageNo int64) (*Page, sim.Completion, error) {
	buf := make([]byte, t.cfg.PageSize)
	c, err := t.vol.ReadAt(at, buf, pageNo*int64(t.cfg.PageSize))
	if err != nil {
		return nil, sim.Completion{}, err
	}
	p, err := DecodePage(buf)
	if err != nil {
		return nil, sim.Completion{}, fmt.Errorf("table: page %d: %w", pageNo, err)
	}
	return p, c, nil
}

// writePage encodes and writes one page, charging simulated time. The
// encode buffer is pooled: backends copy the bytes out synchronously, so
// it can be recycled the moment WriteAt returns.
func (t *Table) writePage(at sim.Time, pageNo int64, p *Page) (sim.Completion, error) {
	buf := storage.GetBuf(t.cfg.PageSize)[:t.cfg.PageSize]
	defer storage.PutBuf(buf)
	if err := p.Encode(buf); err != nil {
		return sim.Completion{}, fmt.Errorf("table: page %d: %w", pageNo, err)
	}
	return t.vol.WriteAt(at, buf, pageNo*int64(t.cfg.PageSize))
}

// allocOverflow allocates a fresh page at the end of the file and links it
// into key order after the given firstKey. Caller holds t.mu.
func (t *Table) allocOverflow(firstKey uint64) int64 {
	pageNo := t.nextPage
	t.nextPage++
	i := sort.Search(len(t.refs), func(i int) bool { return t.refs[i].firstKey > firstKey })
	t.refs = append(t.refs, pageRef{})
	copy(t.refs[i+1:], t.refs[i:])
	t.refs[i] = pageRef{firstKey: firstKey, pageNo: pageNo}
	return pageNo
}

// ApplyUpdatesToPage applies a batch of update records (key order, all
// belonging to this page's key range) to the page image, honouring the
// page-timestamp protocol: an update is applied only if its timestamp is
// newer than the page timestamp. The page timestamp advances to migTS.
// Records that no longer fit spill into overflow pages.
//
// It returns the records that were split off, if any, as fresh Pages (in
// key order) to be placed by the caller. Heavy insertion into one key
// range — e.g. appends past the last page — can split into many pages.
func ApplyUpdatesToPage(p *Page, upds []update.Record, migTS int64, pageSize int) (overflow []*Page) {
	for i := range upds {
		u := &upds[i]
		if u.TS <= p.TS {
			continue // already applied before a crash/restart (§3.6)
		}
		idx, found := p.find(u.Key)
		switch u.Op {
		case update.Delete:
			if found {
				p.removeAt(idx)
			}
		case update.Insert, update.Replace:
			if found {
				p.Bodies[idx] = append([]byte(nil), u.Payload...)
			} else {
				p.insertAt(idx, u.Key, append([]byte(nil), u.Payload...))
			}
		case update.Modify:
			if found {
				body, ok := update.Apply(p.Bodies[idx], true, u)
				if ok {
					p.Bodies[idx] = body
				}
			}
			// Modify of a missing record is a no-op.
		}
	}
	p.TS = migTS
	if p.FitsIn(pageSize) {
		return nil
	}
	// Split: keep a page-sized prefix in place and chop the remainder
	// into overflow pages, each filled to ~90% to absorb future inserts.
	budget := (pageSize - pageHeaderSize) * 9 / 10
	keep := 0
	used := 0
	for keep < len(p.Keys) {
		sz := recHeaderSize + len(p.Bodies[keep])
		if used+sz > budget && keep > 0 {
			break
		}
		used += sz
		keep++
	}
	rest, restBodies := p.Keys[keep:], p.Bodies[keep:]
	for len(rest) > 0 {
		ovf := &Page{TS: migTS}
		used = 0
		for len(rest) > 0 {
			sz := recHeaderSize + len(restBodies[0])
			if used+sz > budget && len(ovf.Keys) > 0 {
				break
			}
			ovf.Keys = append(ovf.Keys, rest[0])
			ovf.Bodies = append(ovf.Bodies, restBodies[0])
			used += sz
			rest, restBodies = rest[1:], restBodies[1:]
		}
		overflow = append(overflow, ovf)
	}
	p.Keys = p.Keys[:keep]
	p.Bodies = p.Bodies[:keep]
	return overflow
}
