package proto

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// Client is a masmd connection: a background reader demultiplexes
// server frames to in-flight requests by sequence number, so any number
// of goroutines can issue requests over the one connection and streamed
// scans interleave with point writes. Methods are safe for concurrent
// use.
type Client struct {
	conn net.Conn
	r    *bufio.Reader

	wmu  sync.Mutex // serializes frames onto the connection
	wbuf []byte
	w    *bufio.Writer

	mu      sync.Mutex
	pending map[uint32]chan *inbound
	nextSeq uint32
	err     error // set once the reader dies; fails all later calls
	done    chan struct{}

	nextTx atomic.Uint64 // the last transaction id BeginTx handed out
}

// inbound is one received frame: the decoded message and the read buffer
// it was decoded from. A row batch travels to its Scan with row bodies
// aliasing buf and comes back to inboundPool once the Scan has delivered
// it; every other reply carries a copy of its body and no buffer.
type inbound struct {
	m   Msg
	buf []byte
}

var inboundPool = sync.Pool{New: func() any { return new(inbound) }}

// release recycles a received frame, its buffer and its row slice.
func (in *inbound) release() { inboundPool.Put(in) }

// DefaultScanWindow is the credit window a Scan opens with: the server
// may have this many row batches in flight before the consumer must
// drain one. The consumer tops it up by half a window once it has drained
// half a window, so a scan sends one credit frame per four row batches.
const DefaultScanWindow = 8

// Dial connects to a masmd server and completes the Hello handshake.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn)
}

// NewClient wraps an established connection (any net.Conn, so tests can
// use net.Pipe) and performs the handshake.
func NewClient(conn net.Conn) (*Client, error) {
	c := &Client{
		conn:    conn,
		r:       bufio.NewReaderSize(conn, 64<<10),
		w:       bufio.NewWriterSize(conn, 64<<10),
		pending: make(map[uint32]chan *inbound),
		done:    make(chan struct{}),
	}
	go c.readLoop()
	resp, err := c.call(&Msg{Op: OpHello, Magic: Magic, Version: Version})
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("proto: handshake: %w", err)
	}
	if resp.Op != OpOK || resp.Value != uint64(Version) {
		c.Close()
		return nil, fmt.Errorf("proto: handshake: server speaks version %d, want %d", resp.Value, Version)
	}
	return c, nil
}

// Close tears the connection down; in-flight calls fail with the
// connection error.
func (c *Client) Close() error { return c.conn.Close() }

func (c *Client) readLoop() {
	for {
		if err := c.readFrame(); err != nil {
			c.fail(err)
			return
		}
	}
}

// readFrame reads one frame into a recycled buffer and hands it to the
// request waiting on its seq. A row batch goes as is, its bodies aliasing
// the buffer, and its Scan recycles it; any other reply gets a copy of its
// body and the buffer is recycled at once. A frame for an unknown seq
// (e.g. trailing batches of an abandoned scan) is recycled unread.
func (c *Client) readFrame() error {
	in := inboundPool.Get().(*inbound)
	var err error
	if in.buf, err = ReadFrame(c.r, in.buf, &in.m); err != nil {
		in.release()
		return err
	}
	c.mu.Lock()
	ch := c.pending[in.m.Seq]
	c.mu.Unlock()
	switch {
	case ch == nil:
		in.release()
	case in.m.Op == OpRows:
		ch <- in
	default:
		out := &inbound{m: in.m}
		out.m.Body = append([]byte(nil), in.m.Body...)
		out.m.Rows = nil
		in.release()
		ch <- out
	}
	return nil
}

func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		c.err = err
		close(c.done)
	}
	c.mu.Unlock()
}

// register allocates a sequence number and its response channel. size
// bounds the number of undelivered frames; scans size it by their
// credit window so the reader never blocks on a slow consumer's
// channel beyond the advertised window.
func (c *Client) register(size int) (uint32, chan *inbound, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return 0, nil, c.err
	}
	seq := c.nextSeq
	c.nextSeq++
	ch := make(chan *inbound, size)
	c.pending[seq] = ch
	return seq, ch, nil
}

func (c *Client) unregister(seq uint32) {
	c.mu.Lock()
	delete(c.pending, seq)
	c.mu.Unlock()
}

// send writes one frame, and any frames queued before it; safe for
// concurrent use.
func (c *Client) send(m *Msg) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	var err error
	c.wbuf, err = WriteFrame(c.w, c.wbuf, m)
	if err != nil {
		return err
	}
	return c.w.Flush()
}

// call sends a request and waits for its single response frame.
func (c *Client) call(m *Msg) (*Msg, error) {
	seq, ch, err := c.register(1)
	if err != nil {
		return nil, err
	}
	defer c.unregister(seq)
	m.Seq = seq
	if err := c.send(m); err != nil {
		return nil, err
	}
	select {
	case in := <-ch:
		resp := &in.m
		if resp.Op == OpErr {
			return nil, &WireError{Code: resp.Code, Retryable: resp.Retryable, Msg: resp.ErrMsg}
		}
		return resp, nil
	case <-c.done:
		c.mu.Lock()
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
}

// Put upserts key in table. A backpressure rejection surfaces as a
// retryable WireError (check ErrBackpressure, or WireError.Retryable).
func (c *Client) Put(table string, key uint64, body []byte) error {
	_, err := c.call(&Msg{Op: OpPut, Table: table, Key: key, Body: body})
	return err
}

// Delete removes key from table.
func (c *Client) Delete(table string, key uint64) error {
	_, err := c.call(&Msg{Op: OpDelete, Table: table, Key: key})
	return err
}

// Modify overwrites len(val) bytes at offset off of key's body.
func (c *Client) Modify(table string, key uint64, off int, val []byte) error {
	_, err := c.call(&Msg{Op: OpModify, Table: table, Key: key, Off: uint32(off), Body: val})
	return err
}

// Scan streams table's rows in [begin, end] through fn in key order
// until fn returns false, limit rows have been delivered (0 = no
// limit), or the range is exhausted. Row bodies are only valid during
// the callback: they alias the frame's read buffer, which is recycled for
// a later frame once the batch is delivered, so a caller that keeps a
// body must copy it.
func (c *Client) Scan(table string, begin, end, limit uint64, fn func(key uint64, body []byte) bool) error {
	const window = DefaultScanWindow
	seq, ch, err := c.register(window)
	if err != nil {
		return err
	}
	defer c.unregister(seq)
	if err := c.send(&Msg{Op: OpScan, Seq: seq, Table: table, Begin: begin, End: end, Limit: limit, Credits: window}); err != nil {
		return err
	}
	const half = window / 2
	credit := Msg{Op: OpCredit, Seq: seq, Credits: half}
	drained := 0 // batches drained since the last top-up
	stopped := false
	for {
		select {
		case in := <-ch:
			m := &in.m
			switch m.Op {
			case OpErr:
				return &WireError{Code: m.Code, Retryable: m.Retryable, Msg: m.ErrMsg}
			case OpRows:
				if !stopped {
					for _, r := range m.Rows {
						if !fn(r.Key, r.Body) {
							// Consumer is done: stop delivering but keep
							// granting credits so the server's stream drains
							// to its final frame and the seq retires cleanly.
							stopped = true
							break
						}
					}
				}
				final := m.Final
				in.release()
				if final {
					return nil
				}
				if drained++; drained < half {
					continue
				}
				drained = 0
				if err := c.send(&credit); err != nil {
					return err
				}
			default:
				return fmt.Errorf("proto: scan: unexpected frame op %d", m.Op)
			}
		case <-c.done:
			c.mu.Lock()
			err := c.err
			c.mu.Unlock()
			return err
		}
	}
}

// BeginTx opens a server-side cross-table transaction and returns its
// id, which the client chooses: the next one of this connection. Like
// TxPut it only queues its frame, so a transaction's begin, updates and
// commit reach the server in one write and cost one round trip. A begin
// the server refuses (the engine closed, say) fails the Commit; BeginTx's
// own error only reports a failed connection. The transaction is bound to
// this connection and aborted if the connection drops.
func (c *Client) BeginTx() (uint64, error) {
	id := c.nextTx.Add(1)
	if err := c.queue(&Msg{Op: OpBeginTx, TxID: id}); err != nil {
		return 0, err
	}
	return id, nil
}

// TxPut queues an insert of (key, body) in transaction txid. The update
// gets no reply: it is sent with the connection's next request (Commit,
// Abort or any other call), so a transaction's updates reach the server
// in one write. An update the server refuses fails the Commit; TxPut's
// own error only reports a failed connection.
func (c *Client) TxPut(txid uint64, table string, key uint64, body []byte) error {
	return c.queue(&Msg{Op: OpTxUpdate, TxID: txid, TxKind: TxPut, Table: table, Key: key, Body: body})
}

// queue writes m's frame into the connection's buffer without flushing
// it: the frame goes out with the connection's next request. Its error
// only reports a failed connection.
func (c *Client) queue(m *Msg) error {
	c.mu.Lock()
	err := c.err
	c.mu.Unlock()
	if err != nil {
		return err
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf, err = WriteFrame(c.w, c.wbuf, m)
	return err
}

// Commit durably commits transaction txid (through the server's group
// commit, like every write). A conflict surfaces as a retryable
// WireError with CodeConflict. If one of the transaction's updates was
// refused, Commit aborts it and fails with that update's error.
func (c *Client) Commit(txid uint64) error {
	_, err := c.call(&Msg{Op: OpTxCommit, TxID: txid})
	return err
}

// Abort discards transaction txid.
func (c *Client) Abort(txid uint64) error {
	_, err := c.call(&Msg{Op: OpTxAbort, TxID: txid})
	return err
}

// Stats fetches a snapshot of the server engine's metric registry as JSON
// (obs.Snapshot: the series /metrics exports).
func (c *Client) Stats() ([]byte, error) {
	resp, err := c.call(&Msg{Op: OpStats})
	if err != nil {
		return nil, err
	}
	return resp.Body, nil
}

// ErrBackpressure reports whether err is a write the engine's admission
// refused under cache-fill pressure (masm.ErrBackpressure) — the typed,
// retryable rejection a server sends instead of collapsing.
func ErrBackpressure(err error) bool {
	var we *WireError
	return errors.As(err, &we) && we.Code == CodeBackpressure
}
