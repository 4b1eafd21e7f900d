package runfile

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"masm/internal/sim"
	"masm/internal/storage"
	"masm/internal/update"
)

// The persisted zone-map block sits inside the run's extent immediately
// after the Size data bytes:
//
//	magic        u32  "MZM2"
//	entryCount   u32  number of granules (== run-index entries)
//	recordCount  u64  records in the run
//	entries      entryCount × 56 bytes:
//	    key     u64  run-index key (smallest key at/after the boundary)
//	    off     i64  record-aligned byte offset of the granule
//	    minKey  u64  zone map of the granule's records
//	    maxKey  u64
//	    minTS   i64
//	    maxTS   i64
//	    alive   u32  records that are not deletions
//	    count   u32  all records
//	dataCRC      u32  CRC-32C of the run's Size data bytes
//	blockCRC     u32  CRC-32C of every preceding block byte
//
// All fields little-endian.
const (
	zoneBlockMagic  = uint32('M') | uint32('Z')<<8 | uint32('M')<<16 | uint32('2')<<24
	zoneBlockHeader = 4 + 4 + 8
	zoneEntrySize   = 8 + 8 + 8 + 8 + 8 + 8 + 4 + 4
	zoneBlockFooter = 4 + 4
)

// MaxIndexBlockSize bounds the zone-map block size for a run of dataSize
// bytes, for extent reservation before the exact entry count is known.
func MaxIndexBlockSize(dataSize int64, cfg Config) int64 {
	entries := dataSize/int64(cfg.IndexGranularity) + 2
	return zoneBlockHeader + entries*zoneEntrySize + zoneBlockFooter
}

func encodeZoneBlock(index []indexEntry, zones []zoneEntry, count int64, dataCRC uint32) []byte {
	p := make([]byte, 0, zoneBlockHeader+len(index)*zoneEntrySize+zoneBlockFooter)
	var w [8]byte
	u32 := func(v uint32) {
		binary.LittleEndian.PutUint32(w[:4], v)
		p = append(p, w[:4]...)
	}
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(w[:], v)
		p = append(p, w[:]...)
	}
	u32(zoneBlockMagic)
	u32(uint32(len(index)))
	u64(uint64(count))
	for i := range index {
		z := zones[i]
		u64(index[i].key)
		u64(uint64(index[i].off))
		u64(z.minKey)
		u64(z.maxKey)
		u64(uint64(z.minTS))
		u64(uint64(z.maxTS))
		u32(uint32(z.alive))
		u32(uint32(z.count))
	}
	u32(dataCRC)
	u32(crc32.Checksum(p, castagnoli))
	return p
}

func decodeZoneBlock(p []byte, id int64) (index []indexEntry, zones []zoneEntry, count int64, dataCRC uint32, err error) {
	fail := func(format string, args ...any) ([]indexEntry, []zoneEntry, int64, uint32, error) {
		return nil, nil, 0, 0, fmt.Errorf("runfile: run %d zone-map block: "+format, append([]any{id}, args...)...)
	}
	if len(p) < zoneBlockHeader+zoneBlockFooter {
		return fail("short block (%d bytes)", len(p))
	}
	if got := crc32.Checksum(p[:len(p)-4], castagnoli); got != binary.LittleEndian.Uint32(p[len(p)-4:]) {
		return fail("checksum mismatch")
	}
	if m := binary.LittleEndian.Uint32(p[0:]); m != zoneBlockMagic {
		return fail("bad magic %08x", m)
	}
	n := int(binary.LittleEndian.Uint32(p[4:]))
	count = int64(binary.LittleEndian.Uint64(p[8:]))
	if want := zoneBlockHeader + n*zoneEntrySize + zoneBlockFooter; want != len(p) {
		return fail("size %d does not match %d entries (want %d)", len(p), n, want)
	}
	index = make([]indexEntry, n)
	zones = make([]zoneEntry, n)
	for i := 0; i < n; i++ {
		e := p[zoneBlockHeader+i*zoneEntrySize:]
		index[i] = indexEntry{
			key: binary.LittleEndian.Uint64(e[0:]),
			off: int64(binary.LittleEndian.Uint64(e[8:])),
		}
		zones[i] = zoneEntry{
			minKey: binary.LittleEndian.Uint64(e[16:]),
			maxKey: binary.LittleEndian.Uint64(e[24:]),
			minTS:  int64(binary.LittleEndian.Uint64(e[32:])),
			maxTS:  int64(binary.LittleEndian.Uint64(e[40:])),
			alive:  int32(binary.LittleEndian.Uint32(e[48:])),
			count:  int32(binary.LittleEndian.Uint32(e[52:])),
		}
		if i > 0 && index[i].off <= index[i-1].off {
			return fail("index offsets out of order")
		}
	}
	dataCRC = binary.LittleEndian.Uint32(p[len(p)-8:])
	return index, zones, count, dataCRC, nil
}

// LoadIndex opens a run from its persisted zone-map block: one read of
// IndexSize bytes at Off+Size reconstructs the run index and zone maps
// without decoding a single record, then a sequential CRC sweep of the
// data bytes (cfg.IOSize chunks) verifies them against the block's stored
// data CRC and wantCRC from the redo log, so a flipped data byte or a
// half-written run fails the open instead of serving wrong query results;
// the same sweep rebuilds the run's in-memory key filter (point.go).
// Crash recovery uses this: the run survives on the non-volatile SSD, but
// its metadata and run index live in memory and must be reconstructed
// (paper §3.6). The reads are charged as sequential SSD reads.
func LoadIndex(vol *storage.Volume, off, size, indexSize int64, at sim.Time,
	id int64, passes int, wantCRC uint32, cfg Config) (*Run, sim.Time, error) {

	now := at
	r, err := loadIndexScan(vol, off, size, indexSize, id, passes, wantCRC, cfg,
		func(p []byte, readOff int64) error {
			c, err := vol.ReadAt(now, p, readOff)
			if err != nil {
				return err
			}
			now = c.End
			return nil
		})
	if err != nil {
		return nil, 0, err
	}
	return r, now, nil
}

// LoadIndexOffline is LoadIndex on the data plane only: unpriced batched
// PeekAt fetches — no simulated time is charged, so any number of opens
// may run concurrently — plus the exact read spans the priced open would
// have issued. The caller replays those spans through ChargeSpans,
// serially and in recovery order, to produce a virtual timeline
// bit-identical to the serial LoadIndex path.
func LoadIndexOffline(vol *storage.Volume, off, size, indexSize int64,
	id int64, passes int, wantCRC uint32, cfg Config) (*Run, []Span, error) {

	sr := newStagedReader(vol, off+size+indexSize, offlineBatch*cfg.IOSize)
	defer sr.release()
	r, err := loadIndexScan(vol, off, size, indexSize, id, passes, wantCRC, cfg, sr.read)
	if err != nil {
		return nil, nil, err
	}
	return r, sr.spans, nil
}

// loadIndexScan is the shared open: read the zone-map block at off+size,
// decode it, then sweep the data in cfg.IOSize chunks computing its
// CRC-32C. read() supplies the bytes (priced or offline).
func loadIndexScan(vol *storage.Volume, off, size, indexSize int64,
	id int64, passes int, wantCRC uint32, cfg Config,
	read func(p []byte, readOff int64) error) (*Run, error) {

	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if off < 0 || size < 0 || indexSize <= 0 {
		return nil, fmt.Errorf("runfile: load run %d: bad geometry (off %d, size %d, index %d)",
			id, off, size, indexSize)
	}
	block := make([]byte, indexSize)
	if err := read(block, off+size); err != nil {
		return nil, err
	}
	index, zones, count, dataCRC, err := decodeZoneBlock(block, id)
	if err != nil {
		return nil, err
	}
	if dataCRC != wantCRC {
		return nil, fmt.Errorf("runfile: load run %d: data checksum mismatch (block %08x, logged %08x)",
			id, dataCRC, wantCRC)
	}
	// Each record is at least a header long; a count beyond that is not a
	// count this data can hold, and must not size an allocation.
	if count < 0 || count > size/update.HeaderSize {
		return nil, fmt.Errorf("runfile: load run %d: %d records cannot fit %d data bytes", id, count, size)
	}
	stage := storage.GetBuf(cfg.IOSize)
	defer storage.PutBuf(stage)
	// The key filter is memory-only: it is rebuilt from the bytes the
	// checksum sweep reads anyway, allocated once from the block's count.
	fb := filterBuilder{f: newKeyFilter(count)}
	var crc uint32
	for readOff := int64(0); readOff < size; {
		n := int64(cfg.IOSize)
		if n > size-readOff {
			n = size - readOff
		}
		chunk := stage[:n]
		if err := read(chunk, off+readOff); err != nil {
			return nil, err
		}
		crc = crc32.Update(crc, castagnoli, chunk)
		fb.feed(chunk)
		readOff += n
	}
	if crc != dataCRC {
		return nil, fmt.Errorf("runfile: load run %d: data checksum mismatch (data %08x, block %08x)",
			id, crc, dataCRC)
	}
	r := &Run{
		ID: id, Off: off, Size: size, Count: count,
		Passes: passes, CRC: dataCRC, IndexSize: indexSize,
		cfg: cfg, vol: vol, index: index, zones: zones, filter: fb.f,
	}
	if len(zones) > 0 {
		r.MinKey = zones[0].minKey
		r.MaxKey = zones[0].maxKey
		r.MinTS, r.MaxTS = zones[0].minTS, zones[0].maxTS
		for _, z := range zones[1:] {
			if z.maxKey > r.MaxKey {
				r.MaxKey = z.maxKey
			}
			if z.minTS < r.MinTS {
				r.MinTS = z.minTS
			}
			if z.maxTS > r.MaxTS {
				r.MaxTS = z.maxTS
			}
		}
	}
	return r, nil
}
