// Package proto is the masmd wire protocol: length-prefixed binary
// frames over a byte stream. Every frame is
//
//	[u32 payloadLen][u8 op][op-specific payload]
//
// with all integers little-endian. A connection opens with a Hello
// handshake carrying a magic number and the protocol version; every
// subsequent client frame carries a sequence number that the server
// echoes in its responses, so one connection multiplexes many in-flight
// requests (and a streamed scan's row batches interleave freely with
// other replies). Not every client frame gets a reply: a transaction's
// begin (OpBeginTx, naming a client-chosen id) and its updates
// (OpTxUpdate) are unanswered, as are credit top-ups. A refused begin or
// update is reported by the transaction's commit, so a transaction costs
// one round trip. Scans are flow-controlled by credits: the client grants
// N outstanding row batches up front and tops the window up as it
// consumes them, so a slow consumer never forces the server to buffer an
// unbounded result.
//
// Decode is hardened against arbitrary bytes — a malformed frame yields
// an error, never a panic or an oversized allocation (see
// FuzzDecodeFrame).
package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Magic opens the Hello frame. Version is bumped on any incompatible
// change to frame layouts or to which frames get replies; the server
// rejects mismatched clients at handshake rather than misparsing
// mid-stream or leaving them waiting. Version 2 stopped answering
// OpTxUpdate; version 3 made OpBeginTx carry the client's txid and stopped
// answering it.
const (
	Magic   uint32 = 0x4D61534D // "MaSM"
	Version uint16 = 3
)

// MaxFrame bounds a single frame's payload. It limits a malicious
// length prefix to a 1 MiB allocation and, via the server's batch
// sizing, keeps streamed row batches comfortably under it.
const MaxFrame = 1 << 20

// Op identifies a frame's type. Client-originated ops are 1..15,
// server-originated 16..31.
type Op uint8

const (
	// Client → server.
	OpHello    Op = 1  // magic u32, version u16
	OpPut      Op = 2  // table, key, body
	OpDelete   Op = 3  // table, key
	OpModify   Op = 4  // table, key, off u32, body
	OpScan     Op = 5  // table, begin, end, limit, credits u32
	OpCredit   Op = 6  // credits u32 (seq names the scan being topped up)
	OpBeginTx  Op = 7  // txid; no reply
	OpTxUpdate Op = 8  // txid, kind u8, table, key, off u32, body; no reply
	OpTxCommit Op = 9  // txid
	OpTxAbort  Op = 10 // txid
	OpStats    Op = 11 // —

	// Server → client.
	OpOK        Op = 16 // value u64 (the version for Hello, 0 otherwise)
	OpErr       Op = 17 // code u16, retryable u8, message
	OpRows      Op = 18 // final u8, nrows u32, nrows × (key u64, body)
	OpStatsJSON Op = 19 // JSON bytes (the engine's registry snapshot)
)

// TxUpdate kinds.
const (
	TxPut    uint8 = 1
	TxDelete uint8 = 2
	TxModify uint8 = 3
)

// Error codes carried by OpErr frames. Retryable is transmitted
// explicitly so clients need no code table to implement backoff.
const (
	CodeBadRequest   uint16 = 1 // malformed or unknown frame
	CodeNoTable      uint16 = 2 // table does not exist
	CodeBackpressure uint16 = 3 // the engine's admission refused the write; retry after backoff
	CodeConflict     uint16 = 4 // transaction write conflict; retry the transaction
	CodeInternal     uint16 = 5 // engine error
	CodeClosed       uint16 = 6 // server shutting down
	CodeNoTx         uint16 = 7 // unknown transaction id
)

// WireError is an OpErr frame as a Go error, preserving the typed code
// and the retryable bit across the wire.
type WireError struct {
	Code      uint16
	Retryable bool
	Msg       string
}

func (e *WireError) Error() string {
	return fmt.Sprintf("masmd: %s (code %d, retryable %v)", e.Msg, e.Code, e.Retryable)
}

// Row is one streamed scan result.
type Row struct {
	Key  uint64
	Body []byte
}

// Msg is the in-memory form of any frame: a kind tag plus the union of
// every op's fields, in the idiom of wal.Entry. Flat rather than an
// interface so a connection can reuse one Msg (and its row slice)
// across frames without allocation.
type Msg struct {
	Op  Op
	Seq uint32

	Magic   uint32 // Hello
	Version uint16 // Hello

	Table   string // Put/Delete/Modify/Scan/TxUpdate
	Key     uint64 // Put/Delete/Modify/TxUpdate
	Off     uint32 // Modify/TxUpdate(TxModify)
	Body    []byte // Put/Modify/TxUpdate bodies, StatsJSON payload
	Begin   uint64 // Scan
	End     uint64 // Scan
	Limit   uint64 // Scan
	Credits uint32 // Scan (initial window), Credit (top-up)
	TxID    uint64 // BeginTx/TxUpdate/TxCommit/TxAbort
	TxKind  uint8  // TxUpdate

	Value     uint64 // OK
	Code      uint16 // Err
	Retryable bool   // Err
	ErrMsg    string // Err

	Final bool  // Rows: no more batches for this scan
	Rows  []Row // Rows
}

var (
	// ErrFrameTooLarge reports a length prefix beyond MaxFrame.
	ErrFrameTooLarge = errors.New("proto: frame exceeds MaxFrame")
	// ErrMalformed reports a payload that does not parse as its op.
	ErrMalformed = errors.New("proto: malformed frame")
)

// appendU16 .. appendBytes build the wire forms; each field helper has a
// matching take* reader in decode.
func appendU16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func appendStr(b []byte, s string) []byte {
	b = appendU16(b, uint16(len(s)))
	return append(b, s...)
}

func appendBytes(b []byte, p []byte) []byte {
	b = appendU32(b, uint32(len(p)))
	return append(b, p...)
}

// BeginRows starts an OpRows frame for seq in buf, reusing its capacity.
// Rows are added with AppendRow and the frame is sealed by FinishRows:
// the streaming form of WriteFrame for a row batch, which writes each row
// straight into the outgoing frame instead of collecting a Msg first. The
// frame's fixed head is 14 bytes: length u32, op u8, seq u32, final u8,
// nrows u32.
func BeginRows(buf []byte, seq uint32) []byte {
	buf = append(buf[:0], 0, 0, 0, 0, byte(OpRows))
	buf = appendU32(buf, seq)
	return append(buf, 0, 0, 0, 0, 0) // final, nrows: set by FinishRows
}

// AppendRow appends one row to b: to a frame begun by BeginRows, or to an
// OpRows payload (AppendPayload's own row encoder).
func AppendRow(b []byte, key uint64, body []byte) []byte {
	b = appendU64(b, key)
	return appendBytes(b, body)
}

// FinishRows seals a frame begun by BeginRows that holds n rows, setting
// its length, final flag and row count. The frame is then exactly what
// WriteFrame writes for the equivalent Msg. A payload beyond MaxFrame is
// ErrFrameTooLarge.
func FinishRows(frame []byte, n int, final bool) error {
	payload := len(frame) - 4
	if payload > MaxFrame {
		return ErrFrameTooLarge
	}
	binary.LittleEndian.PutUint32(frame, uint32(payload))
	frame[9] = 0
	if final {
		frame[9] = 1
	}
	binary.LittleEndian.PutUint32(frame[10:14], uint32(n))
	return nil
}

// AppendPayload appends m's payload (op byte onward) to b. It is the
// inverse of DecodePayload.
func AppendPayload(b []byte, m *Msg) ([]byte, error) {
	b = append(b, byte(m.Op))
	b = appendU32(b, m.Seq)
	switch m.Op {
	case OpHello:
		b = appendU32(b, m.Magic)
		b = appendU16(b, m.Version)
	case OpPut:
		b = appendStr(b, m.Table)
		b = appendU64(b, m.Key)
		b = appendBytes(b, m.Body)
	case OpDelete:
		b = appendStr(b, m.Table)
		b = appendU64(b, m.Key)
	case OpModify:
		b = appendStr(b, m.Table)
		b = appendU64(b, m.Key)
		b = appendU32(b, m.Off)
		b = appendBytes(b, m.Body)
	case OpScan:
		b = appendStr(b, m.Table)
		b = appendU64(b, m.Begin)
		b = appendU64(b, m.End)
		b = appendU64(b, m.Limit)
		b = appendU32(b, m.Credits)
	case OpCredit:
		b = appendU32(b, m.Credits)
	case OpStats:
		// Seq only.
	case OpTxUpdate:
		b = appendU64(b, m.TxID)
		b = append(b, m.TxKind)
		b = appendStr(b, m.Table)
		b = appendU64(b, m.Key)
		b = appendU32(b, m.Off)
		b = appendBytes(b, m.Body)
	case OpBeginTx, OpTxCommit, OpTxAbort:
		b = appendU64(b, m.TxID)
	case OpOK:
		b = appendU64(b, m.Value)
	case OpErr:
		b = appendU16(b, m.Code)
		if m.Retryable {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = appendStr(b, m.ErrMsg)
	case OpRows:
		if m.Final {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = appendU32(b, uint32(len(m.Rows)))
		for _, r := range m.Rows {
			b = AppendRow(b, r.Key, r.Body)
		}
	case OpStatsJSON:
		b = appendBytes(b, m.Body)
	default:
		return nil, fmt.Errorf("proto: encode: unknown op %d", m.Op)
	}
	return b, nil
}

// decoder walks a payload with bounds-checked reads; ok sticks false on
// the first short read so callers check once at the end.
type decoder struct {
	b  []byte
	ok bool
}

func (d *decoder) u8() uint8 {
	if len(d.b) < 1 {
		d.ok = false
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *decoder) u16() uint16 {
	if len(d.b) < 2 {
		d.ok = false
		return 0
	}
	v := binary.LittleEndian.Uint16(d.b)
	d.b = d.b[2:]
	return v
}

func (d *decoder) u32() uint32 {
	if len(d.b) < 4 {
		d.ok = false
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}

func (d *decoder) u64() uint64 {
	if len(d.b) < 8 {
		d.ok = false
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

// bool accepts exactly 0 or 1: the format has one wire form per
// message, so a sloppy boolean is malformed, not "truthy".
func (d *decoder) bool() bool {
	v := d.u8()
	if v > 1 {
		d.ok = false
	}
	return v == 1
}

func (d *decoder) str() string {
	n := int(d.u16())
	if !d.ok || len(d.b) < n {
		d.ok = false
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// bytes returns a view into the payload — callers that retain it past
// the frame must copy.
func (d *decoder) bytes() []byte {
	n := int(d.u32())
	if !d.ok || n > len(d.b) {
		d.ok = false
		return nil
	}
	v := d.b[:n:n]
	d.b = d.b[n:]
	return v
}

// DecodePayload parses one frame payload (op byte onward) into m.
// Returned Body/Rows bodies alias p. Any malformed input — short
// fields, oversized lengths, trailing garbage, unknown ops — returns
// ErrMalformed; no input may panic.
func DecodePayload(p []byte, m *Msg) error {
	if len(p) > MaxFrame {
		return ErrFrameTooLarge
	}
	d := decoder{b: p, ok: true}
	*m = Msg{Op: Op(d.u8()), Seq: d.u32(), Rows: m.Rows[:0]}
	switch m.Op {
	case OpHello:
		m.Magic = d.u32()
		m.Version = d.u16()
	case OpPut:
		m.Table = d.str()
		m.Key = d.u64()
		m.Body = d.bytes()
	case OpDelete:
		m.Table = d.str()
		m.Key = d.u64()
	case OpModify:
		m.Table = d.str()
		m.Key = d.u64()
		m.Off = d.u32()
		m.Body = d.bytes()
	case OpScan:
		m.Table = d.str()
		m.Begin = d.u64()
		m.End = d.u64()
		m.Limit = d.u64()
		m.Credits = d.u32()
	case OpCredit:
		m.Credits = d.u32()
	case OpStats:
	case OpTxUpdate:
		m.TxID = d.u64()
		m.TxKind = d.u8()
		m.Table = d.str()
		m.Key = d.u64()
		m.Off = d.u32()
		m.Body = d.bytes()
	case OpBeginTx, OpTxCommit, OpTxAbort:
		m.TxID = d.u64()
	case OpOK:
		m.Value = d.u64()
	case OpErr:
		m.Code = d.u16()
		m.Retryable = d.bool()
		m.ErrMsg = d.str()
	case OpRows:
		m.Final = d.bool()
		n := int(d.u32())
		// A row is at least 12 bytes on the wire; reject counts the
		// remaining payload cannot possibly hold before allocating.
		if !d.ok || n > len(d.b)/12+1 {
			return ErrMalformed
		}
		for i := 0; i < n && d.ok; i++ {
			m.Rows = append(m.Rows, Row{Key: d.u64(), Body: d.bytes()})
		}
	case OpStatsJSON:
		m.Body = d.bytes()
	default:
		return ErrMalformed
	}
	if !d.ok || len(d.b) != 0 {
		return ErrMalformed
	}
	return nil
}

// WriteFrame appends m's frame to buf (reusing its capacity), writes it
// to w in one call, and returns the buffer for reuse. The caller owns
// any locking; frames from concurrent writers must not interleave.
func WriteFrame(w io.Writer, buf []byte, m *Msg) ([]byte, error) {
	buf = buf[:0]
	buf = appendU32(buf, 0) // length placeholder
	buf, err := AppendPayload(buf, m)
	if err != nil {
		return buf, err
	}
	payload := len(buf) - 4
	if payload > MaxFrame {
		return buf, ErrFrameTooLarge
	}
	binary.LittleEndian.PutUint32(buf, uint32(payload))
	_, err = w.Write(buf)
	return buf, err
}

// ReadFrame reads one frame from r into m, reusing buf for the payload;
// it returns the (possibly grown) buffer. io.EOF surfaces as-is on a
// clean frame boundary so callers can distinguish an orderly close from
// a torn frame (io.ErrUnexpectedEOF).
func ReadFrame(r io.Reader, buf []byte, m *Msg) ([]byte, error) {
	// The length prefix is read into buf too: a local array would escape
	// through the io.Reader call and cost an allocation per frame.
	if cap(buf) < 4 {
		buf = make([]byte, 4)
	}
	buf = buf[:4]
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf, err
	}
	n := int(binary.LittleEndian.Uint32(buf))
	if n > MaxFrame {
		return buf, ErrFrameTooLarge
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return buf, err
	}
	return buf, DecodePayload(buf, m)
}
