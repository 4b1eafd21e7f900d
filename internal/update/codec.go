package update

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// Wire format of an update record, used for the in-memory buffer pages,
// the materialized sorted runs on SSD, and the redo log:
//
//	ts      int64  little-endian
//	key     uint64 little-endian
//	op      uint8
//	plen    uint16 little-endian
//	payload plen bytes
//
// HeaderSize is the fixed part, everything before the payload.
const HeaderSize = 8 + 8 + 1 + 2

// DecodeHeader returns the key and payload length from the record header
// at the front of p, which must hold at least HeaderSize bytes — all a
// pass that only walks record boundaries needs.
func DecodeHeader(p []byte) (key uint64, payloadLen int) {
	return binary.LittleEndian.Uint64(p[8:]), int(binary.LittleEndian.Uint16(p[17:]))
}

// EncodedSize returns the wire size of r.
func EncodedSize(r *Record) int { return HeaderSize + len(r.Payload) }

// AppendEncode appends the wire form of r to dst and returns the extended
// slice.
func AppendEncode(dst []byte, r *Record) []byte {
	var hdr [HeaderSize]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(r.TS))
	binary.LittleEndian.PutUint64(hdr[8:], r.Key)
	hdr[16] = byte(r.Op)
	if len(r.Payload) > 0xffff {
		panic(fmt.Sprintf("update: payload too large: %d", len(r.Payload)))
	}
	binary.LittleEndian.PutUint16(hdr[17:], uint16(len(r.Payload)))
	dst = append(dst, hdr[:]...)
	dst = append(dst, r.Payload...)
	return dst
}

// Decode parses one record from the front of p, returning the record and
// the number of bytes consumed. The record's payload aliases p.
func Decode(p []byte) (Record, int, error) {
	if len(p) < HeaderSize {
		return Record{}, 0, fmt.Errorf("update: short record header: %d bytes", len(p))
	}
	r := Record{
		TS:  int64(binary.LittleEndian.Uint64(p[0:])),
		Key: binary.LittleEndian.Uint64(p[8:]),
		Op:  Op(p[16]),
	}
	plen := int(binary.LittleEndian.Uint16(p[17:]))
	if len(p) < HeaderSize+plen {
		return Record{}, 0, fmt.Errorf("update: short record payload: want %d have %d",
			plen, len(p)-HeaderSize)
	}
	if plen > 0 {
		r.Payload = p[HeaderSize : HeaderSize+plen : HeaderSize+plen]
	}
	if r.Op < Insert || r.Op > Replace {
		return Record{}, 0, fmt.Errorf("update: bad op byte %d", p[16])
	}
	return r, HeaderSize + plen, nil
}

// Iterator yields a stream of update records in (key, ts) order. It is the
// common currency between Mem_scan, Run_scan and Merge_updates operators.
type Iterator interface {
	// Next returns the next record, or ok=false at end of stream.
	Next() (Record, bool, error)
}

// BatchIterator is an Iterator that can also deliver records in batches,
// amortizing per-record call overhead (and, for latched sources, lock
// acquisitions) across a whole batch.
//
// The batching contract: NextBatch fills a prefix of dst with the next
// records of the stream and returns how many it wrote. n == 0 with a nil
// error means end of stream. An implementation must return at least one
// record when the stream is not exhausted and len(dst) > 0, but it is free
// to return fewer than len(dst) — in particular, sources that perform I/O
// return early rather than trigger an extra device read just to top up dst,
// so the sequence of device requests is identical to record-at-a-time
// consumption (refill-on-demand). When err != nil, the n records already
// in dst are valid; the stream is broken after them.
type BatchIterator interface {
	Iterator
	NextBatch(dst []Record) (n int, err error)
}

// FillBatch adapts any Iterator to the NextBatch contract: native batch
// iterators are used directly, legacy iterators are drained record by
// record until dst is full or the stream ends. (The shim may therefore
// read ahead by up to len(dst)-1 records on legacy iterators; sources
// whose read-ahead matters — anything performing simulated I/O —
// implement BatchIterator natively and keep refill-on-demand semantics.)
func FillBatch(it Iterator, dst []Record) (int, error) {
	if bi, ok := it.(BatchIterator); ok {
		return bi.NextBatch(dst)
	}
	n := 0
	for n < len(dst) {
		r, ok, err := it.Next()
		if err != nil {
			return n, err
		}
		if !ok {
			break
		}
		dst[n] = r
		n++
	}
	return n, nil
}

// BatchReader is the consumer-side companion of FillBatch: peek/consume
// lookahead over an Iterator through a batch window, for operators that
// inspect the head of a merged stream before deciding to take it
// (Merge_data_updates, migration page assembly). When the source errors
// mid-batch, the records that preceded the error are served first and the
// error surfaces after them; it is then sticky.
//
// The window starts at one record and doubles per refill up to the
// configured batch size: a consumer that stops early (a range scan
// callback returning false) has then pulled at most about twice what it
// consumed, so sources are not dragged through simulated lookahead I/O
// the record-at-a-time path would never have issued, while drained
// streams still amortize refills over full batches almost immediately.
type BatchReader struct {
	src    Iterator
	buf    []Record
	pos, n int
	win    int
	fills  uint64 // refills so far: the number of the window at the head
	done   bool
	err    error
}

var batchReaderPool = sync.Pool{New: func() any { return new(BatchReader) }}

// NewBatchReader wraps src with a window of up to batch records. The
// reader comes from a pool: Release hands its window to the next one.
func NewBatchReader(src Iterator, batch int) *BatchReader {
	if batch < 1 {
		batch = 1
	}
	r := batchReaderPool.Get().(*BatchReader)
	buf := r.buf
	if cap(buf) < batch {
		buf = make([]Record, batch)
	}
	*r = BatchReader{src: src, buf: buf[:batch], win: 1}
	return r
}

// Release returns the reader to the pool. Neither it nor a pointer Head
// returned may be used afterwards; records Peek copied out stay valid.
func (r *BatchReader) Release() {
	clear(r.buf) // the pool must not pin payloads
	*r = BatchReader{buf: r.buf}
	batchReaderPool.Put(r)
}

// fill refills an empty window from the source and reports whether a
// record is at its head; false means end of stream, or a broken one with
// r.err set.
func (r *BatchReader) fill() bool {
	for r.pos >= r.n {
		if r.done {
			return false
		}
		r.fills++
		n, err := FillBatch(r.src, r.buf[:r.win])
		r.pos, r.n = 0, n
		if r.win < len(r.buf) {
			r.win = min(2*r.win, len(r.buf))
		}
		if err != nil {
			r.err = err
			r.done = true
		} else if n == 0 {
			r.done = true
		}
	}
	return true
}

// Window returns the number of the window at the head: how many refills
// the reader has made, counting one in progress. Once it exceeds w, every
// record of window w has been consumed.
func (r *BatchReader) Window() uint64 { return r.fills }

// Peek returns the record at the head of the stream without consuming it,
// refilling the window as needed. ok=false reports end of stream (or,
// with err != nil, a broken one).
func (r *BatchReader) Peek() (Record, bool, error) {
	if !r.fill() {
		return Record{}, false, r.err
	}
	return r.buf[r.pos], true, nil
}

// PeekKey is Peek reporting only the head record's key, so a merge can
// compare against the head without copying the record out.
func (r *BatchReader) PeekKey() (uint64, bool, error) {
	if r.pos < r.n {
		return r.buf[r.pos].Key, true, nil
	}
	if !r.fill() {
		return 0, false, r.err
	}
	return r.buf[r.pos].Key, true, nil
}

// Head returns the record at the head of the stream in place. It must
// follow a Peek or PeekKey that reported a record, and the pointer is
// valid until Consume.
func (r *BatchReader) Head() *Record { return &r.buf[r.pos] }

// Consume advances past the record at the head.
func (r *BatchReader) Consume() { r.pos++ }

// SliceIterator iterates over an in-memory slice of records.
type SliceIterator struct {
	recs []Record
	i    int
}

// NewSliceIterator returns an iterator over recs (not copied).
func NewSliceIterator(recs []Record) *SliceIterator {
	return &SliceIterator{recs: recs}
}

// Next implements Iterator.
func (it *SliceIterator) Next() (Record, bool, error) {
	if it.i >= len(it.recs) {
		return Record{}, false, nil
	}
	r := it.recs[it.i]
	it.i++
	return r, true, nil
}

// NextBatch implements BatchIterator.
func (it *SliceIterator) NextBatch(dst []Record) (int, error) {
	n := copy(dst, it.recs[it.i:])
	it.i += n
	return n, nil
}
