package proto

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

// sampleMsgs covers every op with representative field values.
func sampleMsgs() []*Msg {
	return []*Msg{
		{Op: OpHello, Seq: 0, Magic: Magic, Version: Version},
		{Op: OpPut, Seq: 1, Table: "orders", Key: 42, Body: []byte("hello world")},
		{Op: OpPut, Seq: 2, Table: "", Key: 0, Body: nil},
		{Op: OpDelete, Seq: 3, Table: "t0", Key: ^uint64(0)},
		{Op: OpModify, Seq: 4, Table: "t1", Key: 7, Off: 8, Body: []byte{1, 2, 3}},
		{Op: OpScan, Seq: 5, Table: "t2", Begin: 10, End: 99999, Limit: 100, Credits: 8},
		{Op: OpCredit, Seq: 5, Credits: 2},
		{Op: OpBeginTx, Seq: 6, TxID: 3},
		{Op: OpTxUpdate, Seq: 7, TxID: 3, TxKind: TxPut, Table: "t0", Key: 9, Body: []byte("x")},
		{Op: OpTxUpdate, Seq: 8, TxID: 3, TxKind: TxModify, Table: "t0", Key: 9, Off: 4, Body: []byte("yy")},
		{Op: OpTxCommit, Seq: 9, TxID: 3},
		{Op: OpTxAbort, Seq: 10, TxID: 4},
		{Op: OpStats, Seq: 11},
		{Op: OpOK, Seq: 12, Value: 77},
		{Op: OpErr, Seq: 13, Code: CodeBackpressure, Retryable: true, ErrMsg: "cache pressure"},
		{Op: OpRows, Seq: 14, Final: false, Rows: []Row{{Key: 1, Body: []byte("a")}, {Key: 2, Body: nil}}},
		{Op: OpRows, Seq: 15, Final: true, Rows: nil},
		{Op: OpStatsJSON, Seq: 16, Body: []byte(`{"rows":1}`)},
	}
}

// eq compares messages, treating nil and empty bodies/rows as equal
// (the wire does not distinguish them).
func eq(a, b *Msg) bool {
	na, nb := *a, *b
	if len(na.Body) == 0 {
		na.Body = nil
	}
	if len(nb.Body) == 0 {
		nb.Body = nil
	}
	if len(na.Rows) == 0 {
		na.Rows = nil
	}
	if len(nb.Rows) == 0 {
		nb.Rows = nil
	}
	for i := range na.Rows {
		if len(na.Rows[i].Body) == 0 {
			na.Rows[i].Body = nil
		}
	}
	for i := range nb.Rows {
		if len(nb.Rows[i].Body) == 0 {
			nb.Rows[i].Body = nil
		}
	}
	return reflect.DeepEqual(na, nb)
}

func TestRoundTrip(t *testing.T) {
	for _, m := range sampleMsgs() {
		payload, err := AppendPayload(nil, m)
		if err != nil {
			t.Fatalf("op %d: encode: %v", m.Op, err)
		}
		var got Msg
		if err := DecodePayload(payload, &got); err != nil {
			t.Fatalf("op %d: decode: %v", m.Op, err)
		}
		if !eq(m, &got) {
			t.Fatalf("op %d: round trip changed the message:\n in: %+v\nout: %+v", m.Op, m, got)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	var wbuf []byte
	var err error
	msgs := sampleMsgs()
	for _, m := range msgs {
		if wbuf, err = WriteFrame(&buf, wbuf, m); err != nil {
			t.Fatalf("op %d: write: %v", m.Op, err)
		}
	}
	var rbuf []byte
	for _, want := range msgs {
		var got Msg
		if rbuf, err = ReadFrame(&buf, rbuf, &got); err != nil {
			t.Fatalf("op %d: read: %v", want.Op, err)
		}
		// ReadFrame reuses rbuf across frames; compare before the next read.
		if !eq(want, &got) {
			t.Fatalf("op %d: frame round trip changed the message:\n in: %+v\nout: %+v", want.Op, want, got)
		}
	}
	if _, err := ReadFrame(&buf, rbuf, &Msg{}); err != io.EOF {
		t.Fatalf("read past end: err = %v, want io.EOF", err)
	}
}

func TestDecodeMalformed(t *testing.T) {
	cases := [][]byte{
		nil,                                      // empty payload
		{0},                                      // unknown op, short
		{99, 0, 0, 0, 0},                         // unknown op, full seq
		{byte(OpPut), 0, 0, 0},                   // truncated seq
		{byte(OpDelete), 0, 0, 0, 0, 0xFF, 0xFF}, // table length runs past payload
		{byte(OpBeginTx), 6, 0, 0, 0},            // version 2's BeginTx: no txid
	}
	// Every valid sample, truncated at every length, must error not panic.
	for _, m := range sampleMsgs() {
		payload, err := AppendPayload(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(payload); cut++ {
			cases = append(cases, payload[:cut])
		}
		// And with trailing garbage.
		cases = append(cases, append(append([]byte(nil), payload...), 0xAB))
	}
	for i, p := range cases {
		var m Msg
		if err := DecodePayload(p, &m); err == nil {
			t.Fatalf("case %d (% x): malformed payload decoded cleanly as %+v", i, p, m)
		}
	}
}

func TestReadFrameRejectsOversizedLength(t *testing.T) {
	var hdr [4]byte
	hdr[0], hdr[1], hdr[2], hdr[3] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, err := ReadFrame(bytes.NewReader(hdr[:]), nil, &Msg{}); err != ErrFrameTooLarge {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

// FuzzDecodeFrame is the server's first line of defense: no client
// bytes, however adversarial, may panic the decoder or make it
// allocate past MaxFrame.
func FuzzDecodeFrame(f *testing.F) {
	for _, m := range sampleMsgs() {
		payload, err := AppendPayload(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Add([]byte{})
	f.Add([]byte{byte(OpRows), 0, 0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0x7F})
	// Row batches as the server builds them, length prefix stripped.
	f.Add(rowsFrame(f, nil, 3, nil, false)[4:])
	f.Add(rowsFrame(f, nil, 4, []Row{{Key: 9, Body: nil}}, true)[4:])
	f.Add(rowsFrame(f, nil, 5, []Row{{Key: 1, Body: []byte("a")}, {Key: 2, Body: bytes.Repeat([]byte("b"), 1000)}}, false)[4:])
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Msg
		if err := DecodePayload(data, &m); err != nil {
			return
		}
		// A payload that decodes must re-encode to the identical bytes:
		// the format has exactly one wire form per message.
		re, err := AppendPayload(nil, &m)
		if err != nil {
			t.Fatalf("decoded message failed to re-encode: %v (%+v)", err, m)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("decode/encode not canonical:\n in: % x\nout: % x", data, re)
		}
	})
}

// rowsFrame builds an OpRows frame in buf with the streaming helpers, the
// way the server builds a scan's frames.
func rowsFrame(tb testing.TB, buf []byte, seq uint32, rows []Row, final bool) []byte {
	tb.Helper()
	frame := BeginRows(buf, seq)
	for _, r := range rows {
		frame = AppendRow(frame, r.Key, r.Body)
	}
	if err := FinishRows(frame, len(rows), final); err != nil {
		tb.Fatal(err)
	}
	return frame
}

// TestRowsHelpersMatchWriteFrame: for random row sets — empty, final and
// not, zero-length and 64 KiB bodies — BeginRows, AppendRow and FinishRows
// produce exactly the bytes WriteFrame writes for the equivalent Msg, and
// the same ErrFrameTooLarge past MaxFrame. One buffer is reused
// throughout, as a scan reuses its frame.
func TestRowsHelpersMatchWriteFrame(t *testing.T) {
	noise := make([]byte, 64<<10)
	rand.New(rand.NewSource(1)).Read(noise)
	var buf []byte
	check := func(seq uint32, final bool, keys []uint64, sizes []uint16) bool {
		rows := make([]Row, len(keys))
		for i, k := range keys {
			n := 0
			if i < len(sizes) {
				switch s := int(sizes[i]); s % 4 {
				case 0: // empty body
				case 1:
					n = len(noise)
				default:
					n = s % 300
				}
			}
			rows[i] = Row{Key: k, Body: noise[len(noise)-n:]}
		}
		var want bytes.Buffer
		_, werr := WriteFrame(&want, nil, &Msg{Op: OpRows, Seq: seq, Final: final, Rows: rows})
		frame := BeginRows(buf, seq)
		for _, r := range rows {
			frame = AppendRow(frame, r.Key, r.Body)
		}
		buf = frame
		if err := FinishRows(frame, len(rows), final); err != werr {
			t.Logf("%d rows: FinishRows err %v, WriteFrame err %v", len(rows), err, werr)
			return false
		}
		return werr != nil || bytes.Equal(frame, want.Bytes())
	}
	for _, final := range []bool{false, true} {
		if !check(7, final, nil, nil) {
			t.Fatalf("empty batch (final %v) differs from WriteFrame", final)
		}
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

// TestFinishRowsFrameTooLarge pins the MaxFrame boundary: one row whose
// payload fills MaxFrame exactly is sealed, one byte more is refused, as
// WriteFrame refuses it.
func TestFinishRowsFrameTooLarge(t *testing.T) {
	const fixed = 1 + 4 + 1 + 4 + 8 + 4 // op, seq, final, nrows, key, body length
	for _, extra := range []int{0, 1} {
		body := make([]byte, MaxFrame-fixed+extra)
		frame := AppendRow(BeginRows(nil, 1), 5, body)
		err := FinishRows(frame, 1, true)
		_, werr := WriteFrame(io.Discard, nil, &Msg{Op: OpRows, Seq: 1, Final: true, Rows: []Row{{Key: 5, Body: body}}})
		switch {
		case extra == 0 && (err != nil || werr != nil):
			t.Fatalf("payload of exactly MaxFrame refused: FinishRows %v, WriteFrame %v", err, werr)
		case extra == 1 && (err != ErrFrameTooLarge || werr != ErrFrameTooLarge):
			t.Fatalf("payload past MaxFrame: FinishRows %v, WriteFrame %v, want ErrFrameTooLarge", err, werr)
		}
	}
}

func TestAppendRowZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is meaningless under the race detector")
	}
	body := make([]byte, 100)
	frame := BeginRows(make([]byte, 0, 64<<10), 7)
	head := len(frame)
	if n := testing.AllocsPerRun(1000, func() {
		frame = frame[:head]
		for k := uint64(0); k < 256; k++ {
			frame = AppendRow(frame, k, body)
		}
	}); n != 0 {
		t.Fatalf("AppendRow into a warm frame: %v allocs per 256 rows, want 0", n)
	}
}

// loopReader replays one byte stream forever.
type loopReader struct {
	b   []byte
	off int
}

func (r *loopReader) Read(p []byte) (int, error) {
	n := copy(p, r.b[r.off:])
	r.off = (r.off + n) % len(r.b)
	return n, nil
}

// TestClientRowsFrameZeroAllocs gates the client's read path for a row
// batch: once its frame buffer is recycled, reading it, decoding it,
// handing it to its scan and delivering every row allocates nothing. A
// frame for a seq nobody waits on is recycled unread, also for free.
func TestClientRowsFrameZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is meaningless under the race detector")
	}
	rows := make([]Row, 256)
	for i := range rows {
		rows[i] = Row{Key: uint64(i), Body: bytes.Repeat([]byte{byte(i)}, 100)}
	}
	stream := rowsFrame(t, nil, 1, rows, false)
	stream = append(stream, rowsFrame(t, nil, 2, rows, false)...)
	ch := make(chan *inbound, 1)
	c := &Client{
		r:       bufio.NewReaderSize(&loopReader{b: stream}, 64<<10),
		pending: map[uint32]chan *inbound{1: ch},
	}
	var sum uint64
	deliver := func() {
		if err := c.readFrame(); err != nil {
			t.Fatal(err)
		}
		in := <-ch
		for _, r := range in.m.Rows {
			sum += r.Key + uint64(r.Body[0])
		}
		in.release()
		if err := c.readFrame(); err != nil { // seq 2: nobody waits
			t.Fatal(err)
		}
		if len(ch) != 0 {
			t.Fatal("a frame for an unknown seq was delivered")
		}
	}
	deliver()
	if n := testing.AllocsPerRun(200, deliver); n != 0 {
		t.Fatalf("delivering a recycled row batch: %v allocs per frame, want 0", n)
	}
	if want := uint64(202) * 2 * 255 * 256 / 2; sum != want {
		t.Fatalf("callback saw key+body sum %d, want %d", sum, want)
	}
}

// TestScanCreditsBatched: a Scan tops its window up by half a window once
// it has drained half a window of row batches, so a 40-batch stream costs
// 9 credit frames, not 39. A scan whose consumer stops keeps granting
// credits, so the stream still drains to its final frame. The server is a
// stand-in that sends one-row batches as its credits allow.
func TestScanCreditsBatched(t *testing.T) {
	const frames = 40
	for _, stopAt := range []int{0, 1} { // rows delivered before fn stops the scan; 0 never stops
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		type result struct {
			sent, credits int
			err           error
		}
		done := make(chan result, 1)
		go func() {
			var res result
			defer func() { done <- res }()
			nc, err := ln.Accept()
			if err != nil {
				res.err = err
				return
			}
			defer nc.Close()
			nc.SetDeadline(time.Now().Add(10 * time.Second))
			r := bufio.NewReader(nc)
			var m Msg
			var rbuf, wbuf []byte
			if rbuf, res.err = ReadFrame(r, rbuf, &m); res.err != nil {
				return
			}
			if wbuf, res.err = WriteFrame(nc, wbuf, &Msg{Op: OpOK, Seq: m.Seq, Value: uint64(Version)}); res.err != nil {
				return
			}
			if rbuf, res.err = ReadFrame(r, rbuf, &m); res.err != nil {
				return
			}
			if m.Op != OpScan {
				res.err = fmt.Errorf("op %d, want OpScan", m.Op)
				return
			}
			seq, avail := m.Seq, int(m.Credits)
			// readCredit reads one top-up of the scan's window.
			readCredit := func() error {
				var err error
				if rbuf, err = ReadFrame(r, rbuf, &m); err != nil {
					return err
				}
				if m.Op != OpCredit || m.Seq != seq {
					return fmt.Errorf("op %d seq %d, want a credit for seq %d", m.Op, m.Seq, seq)
				}
				avail += int(m.Credits)
				res.credits++
				return nil
			}
			for ; res.sent < frames; res.sent++ {
				for avail == 0 {
					if res.err = readCredit(); res.err != nil {
						return
					}
				}
				avail--
				rows := &Msg{Op: OpRows, Seq: seq, Final: res.sent == frames-1, Rows: []Row{{Key: uint64(res.sent)}}}
				if wbuf, res.err = WriteFrame(nc, wbuf, rows); res.err != nil {
					return
				}
			}
			// Count the credits still in flight until the client hangs up.
			for readCredit() == nil {
			}
		}()
		c, err := Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		delivered := 0
		err = c.Scan("t", 0, ^uint64(0), 0, func(uint64, []byte) bool {
			delivered++
			return delivered != stopAt
		})
		c.Close()
		res := <-done
		ln.Close()
		if err != nil || res.err != nil {
			t.Fatalf("stop at %d: scan err %v, server err %v", stopAt, err, res.err)
		}
		if want := frames; stopAt == 0 && delivered != want || stopAt > 0 && delivered != stopAt {
			t.Fatalf("stop at %d: %d rows delivered", stopAt, delivered)
		}
		if res.sent != frames {
			t.Fatalf("stop at %d: the stream stopped after %d of %d frames", stopAt, res.sent, frames)
		}
		if want := (frames - 1) / (DefaultScanWindow / 2); res.credits != want {
			t.Fatalf("stop at %d: %d credit frames for %d row batches, want %d", stopAt, res.credits, frames, want)
		}
	}
}
