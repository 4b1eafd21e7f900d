// Package wal implements the redo log MaSM relies on for crash recovery
// (paper §3.6). MaSM's recovery story is deliberately small: the main data
// is never dirtied by un-logged changes (migration is redone idempotently
// thanks to page timestamps), and the materialized sorted runs live on the
// non-volatile SSD. Only the in-memory update buffer needs recovering, by
// re-reading the update records from this log, and the run-set metadata,
// by re-reading flush/merge/migration records.
//
// # On-disk format (version 5)
//
// The log opens with a 16-byte header — magic, format version, header CRC —
// so an unrelated or stale byte region is never misread as a log. Entries
// are framed as
//
//	[kind u8][len u32][crc u32][payload]
//
// where crc is the CRC-32C (Castagnoli) of kind, len and payload; a zero
// kind byte terminates replay. The checksum is what makes recovery safe on
// real storage: a torn or truncated tail — a record half-written when the
// machine died — fails its CRC and cleanly ends replay instead of being
// decoded as garbage. Appends are buffered and written sequentially in
// group-commit fashion; Sync forces the buffered batch down to the
// volume's backend (fsync on file-backed volumes).
//
// One log is shared by every table of an engine, and every store writes
// through the view ForTable returns. There is one record kind per job, and
// every per-table record's payload opens with the owning table's u32 id:
//
//   - a standalone update is one KindUpdate frame;
//   - every transaction commit, on one table or many, is one KindTxnBatch
//     frame carrying the whole write set (it names its tables itself), so
//     the commit is durable all-or-nothing — a frame passes its CRC or is
//     dropped with the tail;
//   - a flush or merge is one KindFlush / KindMerge frame, forced after
//     the run data it names;
//   - a migration is a forced KindMigrationBegin and ONE forced closing
//     record, KindMigrationPortion, listing the runs the migration's sweep
//     finished with: the begin set after a whole-table migration, nothing
//     for a portion in mid-sweep;
//   - a recovery checkpoint opens with KindOracleAdvance (engine-wide, no
//     table id).
//
// This is the only format the build reads: a log whose header names any
// other version (2–4 were written by earlier builds) is refused by
// version, not converted.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"

	"masm/internal/masm"
	"masm/internal/obs"
	"masm/internal/sim"
	"masm/internal/storage"
	"masm/internal/update"
)

// Kind identifies a log entry type.
type Kind uint8

const (
	// KindEnd (zero) terminates replay.
	KindEnd Kind = iota
	// KindUpdate carries one incoming update record.
	KindUpdate
	// KindFlush records that a 1-pass materialized sorted run was
	// created; updates with timestamps ≤ MaxTS are durable on the SSD.
	KindFlush
	// KindMerge records that 2-pass run Run replaced the Consumed runs.
	KindMerge
	// KindMigrationBegin records the migration timestamp and run set.
	KindMigrationBegin
	// KindMigrationPortion closes a migration-begin record: the migrated
	// span's pages are durable, but only the listed runs (those a
	// completed sweep fully applied — the begin set after a whole-table
	// migration, empty for a portion in mid-sweep) are consumed. A closing
	// record that deleted the whole begin set instead silently discarded
	// every run record outside a portion's key range at the next recovery
	// — a real lost-committed-updates bug the deterministic chaos harness
	// found (repro: insert, one MigrateStep, reopen).
	KindMigrationPortion
	// KindTxnBatch carries a whole transaction write set, for one table or
	// several, in one frame:
	// [n u32] n × ([table u32][nrecs u32] nrecs × record). Because it is a
	// single CRC-framed record, recovery replays the commit all-or-nothing.
	KindTxnBatch
	// KindOracleAdvance persists the engine-wide timestamp high-water
	// mark: recovery writes it into the checkpoint so a LATER recovery
	// still resumes the oracle above every data-page stamp, even when the
	// checkpoint's runs and pending updates all carry smaller timestamps
	// (the migration records that proved the high water were consumed by
	// the first recovery). It carries no table id: the oracle is shared by
	// the whole catalog.
	KindOracleAdvance

	// kindMax is the largest valid kind; replay treats anything above it
	// as a torn tail.
	kindMax = KindOracleAdvance
)

// Format constants.
const (
	// FormatVersion is the log format this build writes and the only one
	// it reads.
	FormatVersion = 5
	// headerSize is the size of the log header: 8-byte magic, u32 version,
	// u32 CRC of the preceding 12 bytes.
	headerSize = 16
	// frameHeaderSize is the per-entry header: kind u8, len u32, crc u32.
	frameHeaderSize = 9
	// maxPayload bounds a single entry; anything larger in a length field
	// is torn-tail garbage, not a record (the largest real entry is an
	// update record, capped well below this by the update wire format).
	maxPayload = 1 << 26
)

// magic identifies a MaSM redo log.
var magic = [8]byte{'M', 'a', 'S', 'M', 'w', 'a', 'l', '\x00'}

// castagnoli is the CRC-32C table used for all log checksums (the same
// polynomial iSCSI and ext4 use; hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameCRC checksums one entry's kind and length — the first five bytes of
// its frame header, head — and its payload.
func frameCRC(head, payload []byte) uint32 {
	return crc32.Update(crc32.Update(0, castagnoli, head[:5]), castagnoli, payload)
}

// encodeHeader renders the 16-byte log header.
func encodeHeader() [headerSize]byte {
	var h [headerSize]byte
	copy(h[:8], magic[:])
	binary.LittleEndian.PutUint32(h[8:], FormatVersion)
	binary.LittleEndian.PutUint32(h[12:], crc32.Checksum(h[:12], castagnoli))
	return h
}

// Hooks order durable side effects around log records when the log runs on
// a real (file-backed) volume. They close the write-ahead invariant from
// the other side: a log record describing on-disk state must never become
// durable before the state it describes.
type Hooks struct {
	// SyncRuns makes completed run data durable. It is called before a
	// flush or merge record is appended (and the record is then forced),
	// so a logged run can never outlive its data in a crash.
	SyncRuns func() error
	// Checkpoint makes the main data and the table metadata (manifest)
	// durable. It is called before a migration's closing record is
	// appended, so recovery either redoes the migration (no closing record)
	// or finds the migrated span complete.
	Checkpoint func() error
}

// groupCommitBytes is the buffering threshold: entries are held in memory
// and written to the log volume once this many bytes accumulate (or on
// Sync). A written batch survives a process kill (it is in the OS page
// cache) but not a power cut until a force covers it; at most maxUnforced
// bytes are ever written but unforced. This models group commit:
// per-update synchronous commits would be dominated by log latency in any
// real deployment too.
const groupCommitBytes = 4 << 10

// maxUnforced bounds the written-but-unforced span of the log. A power cut
// may keep any subset of the unforced batches, and replay tells a torn
// tail from mid-log corruption by distance (tornBatchSpan): every intact
// frame a cut can leave past the first bad one must lie within that span.
// A batch write that would pass the bound forces the log first.
const maxUnforced = tornBatchSpan / 2

// endMarker is the zero frame header written after every batch (and the
// blank an entry's header is filled into).
var endMarker [frameHeaderSize]byte

// Log is an append-only redo log on a volume; stores log through the
// per-table view ForTable returns. It is safe for concurrent use: appends
// from concurrent updaters are serialized by an internal latch, preserving
// the group-commit batching. An append never waits for a force: Sync
// writes the batch under the latch and fsyncs after releasing it, so
// appends go on while the log is forced.
type Log struct {
	mu            sync.Mutex
	vol           *storage.Volume
	buf           []byte
	headerWritten bool
	// written is the end of the bytes handed to the volume; it is stored
	// under mu, after the write returns, and read by forcers without it.
	written atomic.Int64
	// forceMu admits one forcer at a time. durable is the end of the log
	// the last force covered: every byte below it survives a power cut.
	forceMu sync.Mutex
	durable atomic.Int64
	hooks   Hooks
	metrics Metrics
}

// Metrics carries the log's observability handles. All fields are optional
// (obs handles are nil-safe no-ops), so an un-instrumented Log costs
// nothing. SyncNanos observes wall-clock time around the backend sync —
// never simulated time, so instrumentation cannot perturb the virtual
// timeline.
type Metrics struct {
	Appends   *obs.Counter   // entries appended (buffered, pre-force)
	Syncs     *obs.Counter   // backend syncs (forces of the log)
	SyncNanos *obs.Histogram // wall-clock nanoseconds per backend sync
}

// Open creates a log writing from the start of vol. Nothing is written
// until the first batch fills or is forced; the header goes down with it.
func Open(vol *storage.Volume) *Log {
	l := &Log{vol: vol}
	l.written.Store(headerSize)
	l.durable.Store(headerSize)
	return l
}

// SetHooks installs the durable-ordering hooks (see Hooks). Call it before
// any logging activity; file-backed databases install hooks at open time.
func (l *Log) SetHooks(h Hooks) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.hooks = h
}

// SetMetrics installs the log's metric handles. Call it before logging
// activity; entries appended earlier are simply not counted.
func (l *Log) SetMetrics(m Metrics) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.metrics = m
}

// Bootstrap writes and forces the log header (plus an end marker) before
// any records exist. Durable deployments call it at creation time so the
// header can never be legitimately torn: from then on, a header that fails
// validation is genuine corruption and replay refuses it, rather than
// guessing between "fresh log" and "destroyed log". It is a no-op once the
// header is down.
func (l *Log) Bootstrap(at sim.Time) (sim.Time, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.headerWritten {
		return at, nil
	}
	h := encodeHeader()
	payload := make([]byte, headerSize+frameHeaderSize)
	copy(payload, h[:])
	c, err := l.vol.WriteAt(at, payload, 0)
	if err != nil {
		return at, err
	}
	if err := l.fsync(); err != nil {
		return at, err
	}
	l.headerWritten = true
	return c.End, nil
}

// EndOffset reports the byte offset of the end of the forced log: every
// entry below it survives a power cut. Crash tests use it to locate the
// durable tail for truncation.
func (l *Log) EndOffset() int64 { return l.durable.Load() }

func (l *Log) append(at sim.Time, kind Kind, payload []byte) (sim.Time, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(at, kind, payload)
}

// appendLocked buffers one entry, writing the batch out (unforced) once it
// reaches groupCommitBytes; caller holds l.mu.
func (l *Log) appendLocked(at sim.Time, kind Kind, payload []byte) (sim.Time, error) {
	l.metrics.Appends.Inc()
	start := len(l.buf)
	l.buf = append(l.buf, endMarker[:]...)
	hdr := l.buf[start:]
	hdr[0] = byte(kind)
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[5:], frameCRC(hdr, payload))
	l.buf = append(l.buf, payload...)
	if len(l.buf) >= groupCommitBytes {
		return l.flushLocked(at)
	}
	return at, nil
}

// Sync writes buffered entries to the log volume, followed by an end
// marker (not advancing the cursor) so replay never runs into stale bytes
// from a previous log generation occupying the same volume, and then
// forces the volume's backend — the point at which the entries survive a
// power cut. Concurrent Syncs share one force.
func (l *Log) Sync(at sim.Time) (sim.Time, error) {
	return l.forceAfter(at, func() (sim.Time, error) { return at, nil })
}

// forceAfter runs fn with l.mu held and writes the buffered batch out,
// then releases l.mu and forces the log through that batch.
func (l *Log) forceAfter(at sim.Time, fn func() (sim.Time, error)) (sim.Time, error) {
	l.mu.Lock()
	now, err := fn()
	if err == nil {
		now, err = l.flushLocked(now)
	}
	target := l.written.Load()
	l.mu.Unlock()
	if err != nil {
		return at, err
	}
	if err := l.force(target); err != nil {
		return at, err
	}
	return now, nil
}

// flushLocked writes buffered entries (with the trailing end marker) to
// the volume without forcing them; caller holds l.mu. A write that would
// leave more than maxUnforced bytes unforced forces the log first.
func (l *Log) flushLocked(at sim.Time) (sim.Time, error) {
	n := len(l.buf)
	if n == 0 {
		return at, nil
	}
	off := l.written.Load()
	if off+int64(n)-l.durable.Load() > maxUnforced {
		if err := l.force(off); err != nil {
			return at, err
		}
	}
	// The end marker goes in the buffer's spare capacity, so a warm log
	// writes a batch without allocating.
	l.buf = append(l.buf, endMarker[:]...)
	payload, writeOff := l.buf, off
	if !l.headerWritten {
		// First write: lay the header down in front of the first batch in
		// one sequential write.
		h := encodeHeader()
		payload = append(h[:], l.buf...)
		writeOff = 0
	}
	c, err := l.vol.WriteAt(at, payload, writeOff)
	if err != nil {
		l.buf = l.buf[:n]
		return at, err
	}
	l.headerWritten = true
	l.written.Store(off + int64(n))
	l.buf = l.buf[:0]
	return c.End, nil
}

// force makes the log durable through at least target. One forcer at a
// time fsyncs everything written so far, without l.mu, and publishes the
// durable offset; a caller whose target an earlier force covered — one it
// waited for included — returns without an fsync.
func (l *Log) force(target int64) error {
	if l.durable.Load() >= target {
		return nil
	}
	l.forceMu.Lock()
	defer l.forceMu.Unlock()
	if l.durable.Load() >= target {
		return nil
	}
	end := l.written.Load()
	if err := l.fsync(); err != nil {
		return err
	}
	l.durable.Store(end)
	return nil
}

// fsync syncs the volume's backend and counts it.
func (l *Log) fsync() error {
	start := time.Now()
	if err := l.vol.Sync(); err != nil {
		return err
	}
	l.metrics.Syncs.Inc()
	l.metrics.SyncNanos.Observe(time.Since(start).Nanoseconds())
	return nil
}

// runMetaSize is the wire size of a run descriptor: the location fields,
// the run format version, the data's CRC-32C and the zone-map block length.
const runMetaSize = 8 + 8 + 8 + 8 + 1 + 2 + 4 + 8

func encodeRunMeta(dst []byte, run masm.RunMeta) []byte {
	var b [runMetaSize]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(run.RunID))
	binary.LittleEndian.PutUint64(b[8:], uint64(run.Off))
	binary.LittleEndian.PutUint64(b[16:], uint64(run.Size))
	binary.LittleEndian.PutUint64(b[24:], uint64(run.MaxTS))
	b[32] = byte(run.Passes)
	binary.LittleEndian.PutUint16(b[33:], run.Format)
	binary.LittleEndian.PutUint32(b[35:], run.CRC)
	binary.LittleEndian.PutUint64(b[39:], uint64(run.IndexSize))
	return append(dst, b[:]...)
}

func decodeRunMeta(p []byte) (masm.RunMeta, []byte, error) {
	if len(p) < runMetaSize {
		return masm.RunMeta{}, nil, fmt.Errorf("wal: short run meta")
	}
	rm := masm.RunMeta{
		RunID:     int64(binary.LittleEndian.Uint64(p[0:])),
		Off:       int64(binary.LittleEndian.Uint64(p[8:])),
		Size:      int64(binary.LittleEndian.Uint64(p[16:])),
		MaxTS:     int64(binary.LittleEndian.Uint64(p[24:])),
		Passes:    int(p[32]),
		Format:    binary.LittleEndian.Uint16(p[33:]),
		CRC:       binary.LittleEndian.Uint32(p[35:]),
		IndexSize: int64(binary.LittleEndian.Uint64(p[39:])),
	}
	if rm.RunID < 0 || rm.Off < 0 || rm.Size < 0 {
		return masm.RunMeta{}, nil, fmt.Errorf("wal: negative run geometry (id %d, off %d, size %d)",
			rm.RunID, rm.Off, rm.Size)
	}
	// Every run ends in a zone-map block, and a block is never empty.
	if rm.IndexSize <= 0 {
		return masm.RunMeta{}, nil, fmt.Errorf("wal: run %d has no zone-map block (index size %d)", rm.RunID, rm.IndexSize)
	}
	return rm, p[runMetaSize:], nil
}

func encodeIDs(dst []byte, ids []int64) []byte {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(ids)))
	dst = append(dst, n[:]...)
	for _, id := range ids {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(id))
		dst = append(dst, b[:]...)
	}
	return dst
}

func decodeIDs(p []byte) ([]int64, []byte, error) {
	if len(p) < 4 {
		return nil, nil, fmt.Errorf("wal: short id list")
	}
	n := int(binary.LittleEndian.Uint32(p))
	p = p[4:]
	if n < 0 || len(p) < 8*n {
		return nil, nil, fmt.Errorf("wal: truncated id list")
	}
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(binary.LittleEndian.Uint64(p[8*i:]))
	}
	return ids, p[8*n:], nil
}

// logRunRecord appends a flush/merge record with the durable ordering:
// run data first, then the record, forced. Hooks are installed before any
// logging starts, so reading them needs no latch.
func (l *Log) logRunRecord(at sim.Time, kind Kind, payload []byte) (sim.Time, error) {
	if l.hooks.SyncRuns == nil {
		return l.append(at, kind, payload)
	}
	return l.forceAfter(at, func() (sim.Time, error) {
		if err := l.hooks.SyncRuns(); err != nil {
			return at, fmt.Errorf("wal: sync run data before %d record: %w", kind, err)
		}
		return l.appendLocked(at, kind, payload)
	})
}

// logForced appends a migration boundary record and forces it, after the
// Checkpoint hook when the record is one that asserts durable pages.
func (l *Log) logForced(at sim.Time, kind Kind, payload []byte, checkpoint bool) (sim.Time, error) {
	return l.forceAfter(at, func() (sim.Time, error) {
		if checkpoint && l.hooks.Checkpoint != nil {
			if err := l.hooks.Checkpoint(); err != nil {
				return at, fmt.Errorf("wal: checkpoint before migration portion: %w", err)
			}
		}
		return l.appendLocked(at, kind, payload)
	})
}

// TableCheckpoint is one table's recovered state for CheckpointAll.
type TableCheckpoint struct {
	Table   uint32
	Runs    []masm.RunMeta
	Pending []update.Record
	// MaxTS is the table's replayed timestamp high-water mark (see
	// TableState.MaxTS); CheckpointAll persists the maximum across tables
	// as a KindOracleAdvance record.
	MaxTS int64
}

// CheckpointAll appends the recovered state of a whole catalog — every
// table's live run set, then its still-buffered updates — and forces it
// once at the end (and once per maxUnforced on the way). Recovery writes
// it into a fresh log so a second crash recovers too. The per-record hook
// ordering (SyncRuns before each run record) is skipped on purpose:
// checkpointed runs are already durable, that is how they survived the
// crash, so one force at the end is the only barrier needed.
func (l *Log) CheckpointAll(at sim.Time, tables []TableCheckpoint) (sim.Time, error) {
	return l.forceAfter(at, func() (sim.Time, error) {
		now := at
		var err error
		var maxTS int64
		for _, tc := range tables {
			if tc.MaxTS > maxTS {
				maxTS = tc.MaxTS
			}
		}
		if maxTS > 0 {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], uint64(maxTS))
			if now, err = l.appendLocked(now, KindOracleAdvance, b[:]); err != nil {
				return at, err
			}
		}
		for _, tc := range tables {
			for _, rm := range tc.Runs {
				if now, err = l.appendLocked(now, KindFlush, encodeRunMeta(tablePrefix(tc.Table, runMetaSize), rm)); err != nil {
					return at, err
				}
			}
			for i := range tc.Pending {
				if now, err = l.appendLocked(now, KindUpdate, update.AppendEncode(tablePrefix(tc.Table, update.EncodedSize(&tc.Pending[i])), &tc.Pending[i])); err != nil {
					return at, err
				}
			}
		}
		return now, nil
	})
}

// replayChunk is the sequential read unit of streaming replay — one pread
// per chunk rather than two per record, which is what keeps recovery of a
// file-backed log fast (and is also how the virtual-time model prices it).
const replayChunk = 1 << 20

// replayPeakBuf records the largest sliding-buffer capacity a ReadStream
// call ever held. The regression test for the old accumulate-the-whole-log
// replay bug reads it to assert peak replay memory stays O(replayChunk),
// not O(log).
var replayPeakBuf atomic.Int64

func notePeakBuf(n int) {
	for {
		cur := replayPeakBuf.Load()
		if int64(n) <= cur || replayPeakBuf.CompareAndSwap(cur, int64(n)) {
			return
		}
	}
}

// ReadStream replays the log from vol, invoking emit for each decoded
// entry in log order. Entries are parsed incrementally out of a bounded
// sliding window (one replayChunk, compacted in place), so replaying a
// multi-hundred-MB log holds O(chunk) memory, not O(log) — the window
// grows only transiently, for a single oversized frame or for the
// terminal torn-tail-vs-corruption scan. Emitted entries own their
// payloads and never alias the window.
//
// Replay is tail-tolerant: a record whose frame runs past the volume,
// whose length field is implausible, or whose CRC does not match is
// treated as the torn end of the log — everything before it is emitted,
// nothing after it is trusted. The header is not tail: an all-zero header
// region means never-written storage and replays as empty, but non-zero
// bytes that fail the magic, checksum or version are an error — durable
// logs write the header once, up front (Bootstrap), so a mangled header
// is corruption of the whole log, not a torn write, and silently replaying
// it as empty would wipe every committed update.
func ReadStream(vol *storage.Volume, at sim.Time, emit func(Entry) error) (sim.Time, error) {
	now := at
	if vol.Size() < headerSize {
		return now, nil
	}
	hdrBuf := make([]byte, headerSize)
	c, err := vol.ReadAt(now, hdrBuf, 0)
	if err != nil {
		return now, err
	}
	now = c.End
	allZero := true
	for _, b := range hdrBuf {
		if b != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		// Fresh storage: no log here.
		return now, nil
	}
	if string(hdrBuf[:8]) != string(magic[:]) {
		return now, fmt.Errorf("wal: log header magic mismatch (corrupted log or not a log)")
	}
	if crc32.Checksum(hdrBuf[:12], castagnoli) != binary.LittleEndian.Uint32(hdrBuf[12:]) {
		return now, fmt.Errorf("wal: log header checksum mismatch (corrupted log)")
	}
	if v := binary.LittleEndian.Uint32(hdrBuf[8:]); v != FormatVersion {
		return now, fmt.Errorf("wal: log format version %d unsupported (this build reads %d)", v, FormatVersion)
	}

	var (
		// buf[start:] is the unparsed window; its first byte lives at
		// volume offset off. nextRead is where the next sequential chunk
		// is fetched from. The buffer is pooled and reused across replays.
		buf      = storage.GetBuf(2 * replayChunk)
		start    = 0
		off      = int64(headerSize)
		nextRead = int64(headerSize)
	)
	defer func() { storage.PutBuf(buf) }()
	avail := func() int64 { return int64(len(buf) - start) }
	// fill extends the window to at least need unparsed bytes, stopping at
	// the volume end. Parsed bytes are compacted away first, so in steady
	// state (every frame smaller than a chunk) the window never outgrows
	// its initial capacity: replay memory is O(chunk), not O(log).
	fill := func(need int64) error {
		for avail() < need {
			n := min64(replayChunk, vol.Size()-nextRead)
			if n <= 0 {
				return nil
			}
			if start > 0 {
				copy(buf, buf[start:])
				buf = buf[:len(buf)-start]
				start = 0
			}
			if int64(cap(buf)-len(buf)) < n {
				// Oversized frame or torn-tail scan: grow transiently,
				// bounded by that frame/scan, never by the log.
				nb := storage.GetBuf(len(buf) + int(n))
				nb = append(nb, buf...)
				storage.PutBuf(buf)
				buf = nb
			}
			chunk := buf[len(buf) : len(buf)+int(n)]
			c, err := vol.ReadAt(now, chunk, nextRead)
			if err != nil {
				return err
			}
			now = c.End
			buf = buf[:len(buf)+int(n)]
			nextRead += n
			notePeakBuf(cap(buf))
		}
		return nil
	}
	notePeakBuf(cap(buf))
	for {
		if err := fill(frameHeaderSize); err != nil {
			return now, err
		}
		if avail() < frameHeaderSize {
			break // volume exhausted
		}
		w := buf[start:]
		kind := Kind(w[0])
		if kind == KindEnd {
			break
		}
		plen := int64(binary.LittleEndian.Uint32(w[1:]))
		wantCRC := binary.LittleEndian.Uint32(w[5:])
		if kind > kindMax || plen > maxPayload || off+frameHeaderSize+plen > vol.Size() {
			if err := fill(tornBatchSpan + tornScanWindow); err != nil {
				return now, err
			}
			if i, ok := corruptionBeyondTornBatch(buf[start:]); ok {
				return now, fmt.Errorf("wal: corrupt record at offset %d with intact entries at offset %d: mid-log corruption, not a torn tail", off, off+int64(i))
			}
			break // torn tail
		}
		if err := fill(frameHeaderSize + plen); err != nil {
			return now, err
		}
		w = buf[start:]
		payload := w[frameHeaderSize : frameHeaderSize+plen]
		if frameCRC(w, payload) != wantCRC {
			if err := fill(tornBatchSpan + tornScanWindow); err != nil {
				return now, err
			}
			if i, ok := corruptionBeyondTornBatch(buf[start:]); ok {
				return now, fmt.Errorf("wal: record at offset %d fails its checksum with intact entries at offset %d: mid-log corruption, not a torn tail", off, off+int64(i))
			}
			break // torn tail: the record never finished reaching the disk
		}
		e, err := decodeEntry(kind, payload)
		if err != nil {
			// The CRC matched, so these are the bytes we wrote; failing to
			// decode them is a format bug, not a torn write. Surface it.
			return now, err
		}
		if err := emit(e); err != nil {
			return now, err
		}
		start += int(frameHeaderSize + plen)
		off += frameHeaderSize + plen
	}
	return now, nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// Torn-tail vs mid-log corruption. A bad frame has two possible causes: a
// crash tore the unforced tail (expected; replay truncates there, and only
// un-acknowledged batches are lost), or committed bytes rotted in the
// middle of the log (replay must fail — truncating would silently discard
// updates whose Sync returned). The two are distinguished by distance: a
// power cut can only damage what was written since the last force — at
// most maxUnforced (half this span) plus one batch — and the OS may apply
// those pages in any order, so intact frames *within* that span prove
// nothing. An intact frame found *beyond* it cannot belong to the unforced
// tail and is evidence of committed data past the damage. The margin over
// maxUnforced is kept so a future, larger record type cannot turn real
// crashes into false corruption reports; the price is that corruption
// within the last span of the log is indistinguishable from a torn tail and
// still truncates.
const (
	tornBatchSpan  = 1 << 20
	tornScanWindow = 4 << 20
)

// corruptionBeyondTornBatch scans the bytes following a bad frame (buf[0]
// is the bad frame's first byte) for an intact frame starting beyond the
// torn-batch span, returning its offset relative to the bad frame. Random
// bytes almost never pass the kind/length plausibility gates, so the scan
// stays cheap; CRCs are only computed for the rare plausible candidates.
func corruptionBeyondTornBatch(buf []byte) (int, bool) {
	if len(buf) <= tornBatchSpan {
		return 0, false
	}
	p := buf[tornBatchSpan:]
	for i := 0; i+frameHeaderSize <= len(p); i++ {
		kind := Kind(p[i])
		if kind == KindEnd || kind > kindMax {
			continue
		}
		plen := int64(binary.LittleEndian.Uint32(p[i+1:]))
		if plen > maxPayload || int64(i)+frameHeaderSize+plen > int64(len(p)) {
			continue
		}
		payload := p[i+frameHeaderSize : int64(i)+frameHeaderSize+plen]
		if frameCRC(p[i:], payload) != binary.LittleEndian.Uint32(p[i+5:]) {
			continue
		}
		if _, err := decodeEntry(kind, payload); err != nil {
			continue
		}
		return tornBatchSpan + i, true
	}
	return 0, false
}

// Entry is one decoded log record.
type Entry struct {
	Kind Kind
	// Table is the owning table of a per-table record (the payload's id
	// prefix); 0 for KindTxnBatch and KindOracleAdvance, which have none.
	Table    uint32
	Rec      update.Record  // KindUpdate
	Run      masm.RunMeta   // KindFlush, KindMerge
	Consumed []int64        // KindMerge, KindMigrationPortion
	MigTS    int64          // migration begin/portion, oracle advance
	RunIDs   []int64        // KindMigrationBegin
	Parts    []masm.TxnPart // KindTxnBatch
}

// tablePrefix starts a per-table record's payload: the owning table's id,
// with room for body more bytes, so appending an update record behind it
// (the hot path) does not reallocate.
func tablePrefix(table uint32, body int) []byte {
	return binary.LittleEndian.AppendUint32(make([]byte, 0, 4+body), table)
}

func decodeEntry(kind Kind, p []byte) (Entry, error) {
	e := Entry{Kind: kind}
	switch kind {
	case KindUpdate, KindFlush, KindMerge, KindMigrationBegin, KindMigrationPortion:
		if len(p) < 4 {
			return e, fmt.Errorf("wal: short table id")
		}
		e.Table = binary.LittleEndian.Uint32(p)
		p = p[4:]
	}
	switch kind {
	case KindTxnBatch:
		parts, err := decodeTxnBatch(p)
		if err != nil {
			return e, err
		}
		e.Parts = parts
	case KindUpdate:
		rec, _, err := update.Decode(p)
		if err != nil {
			return e, err
		}
		// Own the payload: p is a fresh buffer per entry, but be safe.
		rec.Payload = append([]byte(nil), rec.Payload...)
		e.Rec = rec
	case KindFlush:
		run, _, err := decodeRunMeta(p)
		if err != nil {
			return e, err
		}
		e.Run = run
	case KindMerge:
		run, rest, err := decodeRunMeta(p)
		if err != nil {
			return e, err
		}
		ids, _, err := decodeIDs(rest)
		if err != nil {
			return e, err
		}
		e.Run = run
		e.Consumed = ids
	case KindMigrationBegin:
		if len(p) < 8 {
			return e, fmt.Errorf("wal: short migration begin")
		}
		e.MigTS = int64(binary.LittleEndian.Uint64(p))
		ids, _, err := decodeIDs(p[8:])
		if err != nil {
			return e, err
		}
		e.RunIDs = ids
	case KindMigrationPortion:
		if len(p) < 8 {
			return e, fmt.Errorf("wal: short migration portion")
		}
		e.MigTS = int64(binary.LittleEndian.Uint64(p))
		ids, _, err := decodeIDs(p[8:])
		if err != nil {
			return e, err
		}
		e.Consumed = ids
	case KindOracleAdvance:
		if len(p) < 8 {
			return e, fmt.Errorf("wal: short oracle advance")
		}
		e.MigTS = int64(binary.LittleEndian.Uint64(p))
	default:
		return e, fmt.Errorf("wal: unknown entry kind %d", kind)
	}
	return e, nil
}

// ForTable returns the redo logger a table's store logs through: a view
// of the log that opens every record with the table's id. All views share
// the log's latch, buffer and group-commit batching.
func (l *Log) ForTable(table uint32) masm.RedoLogger {
	return &tableLogger{l: l, table: table}
}

type tableLogger struct {
	l     *Log
	table uint32
}

// BatchBase implements masm.RedoLogger: views share their parent's
// physical log.
func (t *tableLogger) BatchBase() any { return t.l }

// LogTxnBatch implements masm.RedoLogger: the entire write set (the batch
// already names every table it touches) goes down as one CRC-framed
// record, so it replays all-or-nothing. Like per-record updates it is
// group-committed: Sync makes it durable.
func (t *tableLogger) LogTxnBatch(at sim.Time, parts []masm.TxnPart) (sim.Time, error) {
	payload := encodeTxnBatch(parts)
	if len(payload) > maxPayload {
		return at, fmt.Errorf("wal: transaction batch of %d bytes exceeds the %d-byte record bound", len(payload), maxPayload)
	}
	return t.l.append(at, KindTxnBatch, payload)
}

func (t *tableLogger) LogUpdate(at sim.Time, rec update.Record) (sim.Time, error) {
	return t.l.append(at, KindUpdate, update.AppendEncode(tablePrefix(t.table, update.EncodedSize(&rec)), &rec))
}

// LogFlush implements masm.RedoLogger. With hooks installed, the run data
// is synced first and the record is forced: once a flush record is
// durable, recovery drops the covered updates from the replayed buffer, so
// the record must never be readable while the run it points at is not.
func (t *tableLogger) LogFlush(at sim.Time, run masm.RunMeta) (sim.Time, error) {
	return t.l.logRunRecord(at, KindFlush, encodeRunMeta(tablePrefix(t.table, runMetaSize), run))
}

// LogMerge implements masm.RedoLogger. The same ordering as LogFlush
// applies; additionally the consumed runs' extents may be reused by later
// flushes, so the record must be durable before that reuse can be.
func (t *tableLogger) LogMerge(at sim.Time, run masm.RunMeta, consumed []int64) (sim.Time, error) {
	return t.l.logRunRecord(at, KindMerge, encodeIDs(encodeRunMeta(tablePrefix(t.table, runMetaSize), run), consumed))
}

// LogMigrationBegin implements masm.RedoLogger. Migration boundaries are
// forced to disk: recovery must know about a migration that may have
// dirtied data pages.
func (t *tableLogger) LogMigrationBegin(at sim.Time, migTS int64, runIDs []int64) (sim.Time, error) {
	payload := encodeIDs(binary.LittleEndian.AppendUint64(tablePrefix(t.table, 8), uint64(migTS)), runIDs)
	return t.l.logForced(at, KindMigrationBegin, payload, false)
}

// LogMigrationPortion implements masm.RedoLogger. With hooks installed,
// the migrated table (data pages and manifest) is checkpointed first — a
// durable closing record asserts the migration's effects are durable too —
// and the record is forced, because the consumed runs' extents may be
// reused by later flushes.
func (t *tableLogger) LogMigrationPortion(at sim.Time, migTS int64, consumed []int64) (sim.Time, error) {
	payload := encodeIDs(binary.LittleEndian.AppendUint64(tablePrefix(t.table, 8), uint64(migTS)), consumed)
	return t.l.logForced(at, KindMigrationPortion, payload, true)
}

func encodeTxnBatch(parts []masm.TxnPart) []byte {
	var b []byte
	b = binary.LittleEndian.AppendUint32(b, uint32(len(parts)))
	for _, p := range parts {
		b = binary.LittleEndian.AppendUint32(b, p.Table)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(p.Recs)))
		for i := range p.Recs {
			b = update.AppendEncode(b, &p.Recs[i])
		}
	}
	return b
}

func decodeTxnBatch(p []byte) ([]masm.TxnPart, error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("wal: short txn batch")
	}
	n := int(binary.LittleEndian.Uint32(p))
	p = p[4:]
	if n < 0 || n > maxPayload/8 {
		return nil, fmt.Errorf("wal: implausible txn batch part count %d", n)
	}
	parts := make([]masm.TxnPart, 0, min(n, 64))
	for i := 0; i < n; i++ {
		if len(p) < 8 {
			return nil, fmt.Errorf("wal: truncated txn batch part header")
		}
		table := binary.LittleEndian.Uint32(p)
		nrecs := int(binary.LittleEndian.Uint32(p[4:]))
		p = p[8:]
		if nrecs < 0 || nrecs > maxPayload/8 {
			return nil, fmt.Errorf("wal: implausible txn batch record count %d", nrecs)
		}
		recs := make([]update.Record, 0, min(nrecs, 256))
		for r := 0; r < nrecs; r++ {
			rec, used, err := update.Decode(p)
			if err != nil {
				return nil, fmt.Errorf("wal: txn batch record: %w", err)
			}
			rec.Payload = append([]byte(nil), rec.Payload...)
			recs = append(recs, rec)
			p = p[used:]
		}
		parts = append(parts, masm.TxnPart{Table: table, Recs: recs})
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("wal: %d trailing bytes after txn batch", len(p))
	}
	return parts, nil
}
