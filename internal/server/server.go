// Package server exposes a masm.Engine over the proto wire protocol:
// one goroutine per connection, and leader/follower group commit that
// batches every connection's writes into single WAL fsyncs, forced by the
// connection whose write opened the batch. A write the engine's admission
// refuses (masm.ErrBackpressure: migration has not kept up with cache
// fill) reaches the client as a typed retryable error.
//
// Durability contract: a write is acknowledged only after the WAL sync
// covering its append has returned. A write joins a batch only after its
// append, and the batch's leader syncs only after closing it, so
// acknowledgement strictly follows a sync that covers the write: a crash
// between append and sync can lose only unacknowledged writes — never
// ack-then-lose.
package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"masm"
	"masm/internal/obs"
	"masm/internal/proto"
)

// Options configures a Server. It has no settings, since write admission
// is the engine's (masm.AdmitFill); it stays so that callers passing
// Options{} keep compiling.
type Options struct{}

// scanBatchRows caps the rows of one streamed OpRows frame; a frame also
// closes once its rows pass MaxFrame/2 bytes.
const scanBatchRows = 256

// batch is one group commit: the writes that share a WAL sync. The write
// that opens it leads: it gathers, closes the batch and syncs, and the
// writes that joined wait for done.
type batch struct {
	n    int64         // writes in the batch, the leader's included
	want int64         // the writer count the leader gathers for; 0 if it does not
	full chan struct{} // closed when n reaches want: the leader stops gathering
	done chan struct{} // closed once the covering sync returned
	err  error         // the sync's result, set before done closes
}

// Server serves the proto protocol for one engine.
type Server struct {
	eng *masm.Engine

	gmu      sync.Mutex
	open     *batch       // the batch taking writes, nil if none; guarded by gmu
	syncEWMA atomic.Int64 // smoothed WAL sync cost, ns; feeds gatherWindow
	writers  atomic.Int64 // connections whose latest request was a write or a commit

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]*conn
	closed bool
	quit   chan struct{}
	connWG sync.WaitGroup

	mConns      *obs.Gauge
	mGroupSize  *obs.Histogram
	mCommitWait *obs.Histogram
	mGatherWait *obs.Histogram
	mWrites     *obs.Counter
	mScanRows   *obs.Counter
	mScans      *obs.Counter
}

// New builds a Server over eng. Metrics register in the engine's
// registry, so obs.Serve (MetricsAddr) exports them alongside the
// engine's own. It starts no goroutine: connections run on Serve's, and
// each write's sync on its own connection's.
func New(eng *masm.Engine, _ Options) *Server {
	reg := eng.Registry()
	return &Server{
		eng:   eng,
		conns: make(map[net.Conn]*conn),
		quit:  make(chan struct{}),

		mConns:      reg.Gauge("masm_server_conns"),
		mGroupSize:  reg.Histogram("masm_wal_group_size"),
		mCommitWait: reg.Histogram("masm_server_commit_wait_ns"),
		mGatherWait: reg.Histogram("masm_server_gather_wait_ns"),
		mWrites:     reg.Counter("masm_server_writes"),
		mScanRows:   reg.Counter("masm_server_scan_rows"),
		mScans:      reg.Counter("masm_server_scans"),
	}
}

// Serve accepts connections on ln until Close; it returns nil after a
// Close-initiated shutdown and the listener's error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return masm.ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			select {
			case <-s.quit:
				return nil
			default:
				return err
			}
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return nil
		}
		c := &conn{
			s:     s,
			c:     nc,
			quit:  make(chan struct{}),
			scans: make(map[uint32]chan uint32),
			txs:   make(map[uint64]*wireTx),
		}
		s.conns[nc] = c
		s.connWG.Add(1)
		s.mu.Unlock()
		s.mConns.Add(1)
		go c.handle()
	}
}

// Close stops accepting, tears down every connection (aborting its
// open transactions and scans) and waits for the handlers to drain. It
// does not close the engine.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.quit)
	ln := s.ln
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.connWG.Wait()
	return nil
}

// maxGather is the gathering window's upper clamp. It is also how long a
// writer may stay quiet after its latest request before a batch stops
// waiting for it (activeWriters).
const maxGather = 2 * time.Millisecond

// gatherWindow is the gathering window: an EWMA of recent sync costs
// clamped to [50µs, maxGather] so the wait stays proportional to what it
// amortizes.
func (s *Server) gatherWindow() time.Duration {
	w := time.Duration(s.syncEWMA.Load())
	switch {
	case w < 50*time.Microsecond:
		w = 50 * time.Microsecond
	case w > maxGather:
		w = maxGather
	}
	return w
}

func (s *Server) recordSyncCost(nanos int64) {
	old := s.syncEWMA.Load()
	s.syncEWMA.Store(old - old/4 + nanos/4)
}

// groupCommit makes one just-appended write durable: it joins the open
// batch, or opens one and leads it, and returns once a WAL sync that
// covers the write has returned. A write joins strictly after its engine
// apply (WAL append), and the leader syncs strictly after closing the
// batch, so the sync that releases a write is ordered after its append.
//
// Gathering window: concurrent writers' commits trail the first by a
// client round trip, so an immediate sync would commit a batch of one and
// serialize every connection behind per-write fsyncs. Holding the batch
// open for about one sync's cost lets the rest of the fleet join (waiting
// one sync's worth at most doubles a commit's latency, while under N
// writers it multiplies the batch — and divides the fsync rate — by up to
// N). Only writers are waited for: connections whose latest request was a
// write or a commit, whose next commit is a round trip away. A batch as
// large as the writer count closes early, since a closed-loop client has
// at most one commit in flight, and a lone writer does not gather at all,
// so one beside readers still sees bare-fsync latency. A leader whose
// batch is closed no longer takes writes: the next write opens a new
// batch, which gathers while this one is forced (the log merges
// concurrent forces). masm_wal_group_size records how much each sync
// amortized, and masm_server_gather_wait_ns how long each gathered batch
// was held open.
func (s *Server) groupCommit() error {
	s.gmu.Lock()
	if b := s.open; b != nil {
		b.n++
		if b.n == b.want {
			close(b.full)
		}
		s.gmu.Unlock()
		<-b.done
		return b.err
	}
	b := &batch{n: 1, done: make(chan struct{})}
	if s.writers.Load() > 1 {
		if want := s.activeWriters(); want > 1 {
			b.want, b.full = want, make(chan struct{})
		}
	}
	s.open = b
	s.gmu.Unlock()

	if b.full != nil {
		start := time.Now()
		timer := time.NewTimer(s.gatherWindow())
		select {
		case <-b.full:
		case <-timer.C:
		case <-s.quit:
		}
		timer.Stop()
		s.mGatherWait.Observe(time.Since(start).Nanoseconds())
	}
	s.gmu.Lock()
	s.open = nil
	n := b.n
	s.gmu.Unlock()

	start := time.Now()
	b.err = s.eng.Sync()
	syncNanos := time.Since(start).Nanoseconds()
	s.recordSyncCost(syncNanos)
	s.mCommitWait.Observe(syncNanos)
	s.mGroupSize.Observe(n)
	close(b.done)
	return b.err
}

// activeWriters counts the writers a batch opening now gathers for: those
// with a request under way or answered less than maxGather ago. A client
// that wrote and went idle is not waited for, or it would hold every
// other writer's commit open for a companion that is not coming.
func (s *Server) activeWriters() int64 {
	quiet := monoNow() - int64(maxGather)
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, c := range s.conns {
		if since := c.writerSince.Load(); since == writerBusy || since > quiet {
			n++
		}
	}
	return n
}

// writerBusy is conn.writerSince while a writer's request is under way.
const writerBusy = -1

// monoStart anchors monoNow, the monotonic clock conn.writerSince reads.
var monoStart = time.Now()

func monoNow() int64 { return int64(time.Since(monoStart)) }

// conn is the per-connection state shared between its reader goroutine
// and the scan goroutines it spawns.
type conn struct {
	s    *Server
	c    net.Conn
	quit chan struct{} // closed when the reader exits: scans must unwind

	wmu  sync.Mutex
	wbuf []byte

	// writer is whether the latest request (credit top-ups aside) was a
	// write or a commit; the reader goroutine alone touches it. For a
	// batch's leader, writerSince is writerBusy while a writer's request
	// is under way, when its reply went out (monoNow) once it is done, and
	// 0 for a connection that is not a writer.
	writer      bool
	writerSince atomic.Int64

	mu    sync.Mutex
	scans map[uint32]chan uint32 // scan seq -> credit top-ups
	txs   map[uint64]*wireTx     // by the id the client's begin named

	scanWG sync.WaitGroup
}

// wireTx is a transaction open on a connection. Its begin and updates get
// no reply, so the first of them that failed is kept here, with its wire
// code and retryable bit, for the commit to report; the reader goroutine
// alone touches code, retry and err. tx is nil if the begin was refused.
type wireTx struct {
	tx    *masm.EngineTx
	code  uint16
	retry bool
	err   error
}

// fail keeps err as the transaction's failure unless one is kept already.
func (wt *wireTx) fail(code uint16, retry bool, err error) {
	if wt.err == nil {
		wt.code, wt.retry, wt.err = code, retry, err
	}
}

// abort discards the transaction's engine state, if its begin made any.
func (wt *wireTx) abort() {
	if wt.tx != nil {
		wt.tx.Abort()
	}
}

// handle serves the connection, then tears it down.
func (c *conn) handle() {
	s, nc := c.s, c.c
	c.serve()
	c.markWriter(false)

	// Teardown: wake every scan, wait for them, abort open transactions,
	// then release the socket. After this a torn connection holds no
	// goroutines, no query pins, and no transaction snapshots.
	close(c.quit)
	c.scanWG.Wait()
	c.mu.Lock()
	txs := c.txs
	c.txs = nil
	c.mu.Unlock()
	for _, wt := range txs {
		wt.abort()
	}
	nc.Close()
	s.mu.Lock()
	delete(s.conns, nc)
	s.mu.Unlock()
	s.mConns.Add(-1)
	s.connWG.Done()
}

// reply serializes one frame onto the connection; scan goroutines and
// the reader share the write side through wmu.
func (c *conn) reply(m *proto.Msg) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	var err error
	c.wbuf, err = proto.WriteFrame(c.c, c.wbuf, m)
	return err
}

// writeFrame writes one already-encoded frame, serialized with reply.
func (c *conn) writeFrame(frame []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	_, err := c.c.Write(frame)
	return err
}

func (c *conn) replyErr(seq uint32, code uint16, retryable bool, err error) error {
	return c.reply(&proto.Msg{Op: proto.OpErr, Seq: seq, Code: code, Retryable: retryable, ErrMsg: err.Error()})
}

func (c *conn) replyOK(seq uint32, value uint64) error {
	return c.reply(&proto.Msg{Op: proto.OpOK, Seq: seq, Value: value})
}

// serve runs the connection's read loop until the peer goes away or
// sends garbage. Handshake first: anything but a well-formed,
// version-matched Hello ends the connection. The socket is read through
// a buffer, so a burst of pipelined frames costs one read, not two per
// frame.
func (c *conn) serve() {
	r := bufio.NewReaderSize(c.c, 64<<10)
	var rbuf []byte
	var m proto.Msg
	var err error
	rbuf, err = proto.ReadFrame(r, rbuf, &m)
	if err != nil || m.Op != proto.OpHello || m.Magic != proto.Magic {
		return
	}
	if m.Version != proto.Version {
		c.replyErr(m.Seq, proto.CodeBadRequest, false,
			fmt.Errorf("protocol version %d unsupported (server speaks %d)", m.Version, proto.Version))
		return
	}
	if c.replyOK(m.Seq, uint64(proto.Version)) != nil {
		return
	}
	for {
		rbuf, err = proto.ReadFrame(r, rbuf, &m)
		if err != nil {
			// Torn or closed connection (or garbage framing): the caller
			// cleans up scans and transactions.
			return
		}
		if !c.dispatch(&m) {
			return
		}
		if c.writer {
			c.writerSince.Store(monoNow())
		}
	}
}

// markWriter records whether the connection's latest request was a write
// or a commit, keeping the server's count of such connections — the
// writers a commit batch's leader may wait for — and marks a writer's
// request under way (writerSince) until serve stamps its reply.
func (c *conn) markWriter(w bool) {
	if w {
		c.writerSince.Store(writerBusy)
	} else if c.writer {
		c.writerSince.Store(0)
	}
	if w == c.writer {
		return
	}
	c.writer = w
	if w {
		c.s.writers.Add(1)
	} else {
		c.s.writers.Add(-1)
	}
}

// dispatch handles one request frame; it reports false when the
// connection should end (write failure or protocol violation).
func (c *conn) dispatch(m *proto.Msg) bool {
	s := c.s
	switch m.Op {
	case proto.OpCredit: // tops up a scan: says nothing about what comes next
	case proto.OpPut, proto.OpDelete, proto.OpModify, proto.OpTxCommit:
		c.markWriter(true)
	default:
		c.markWriter(false)
	}
	switch m.Op {
	case proto.OpPut, proto.OpDelete, proto.OpModify:
		tbl, err := s.eng.OpenTable(m.Table)
		if err != nil {
			return c.replyErr(m.Seq, proto.CodeNoTable, false, err) == nil
		}
		switch m.Op {
		case proto.OpPut:
			err = tbl.Insert(m.Key, m.Body)
		case proto.OpDelete:
			err = tbl.Delete(m.Key)
		case proto.OpModify:
			err = tbl.Modify(m.Key, int(m.Off), m.Body)
		}
		if errors.Is(err, masm.ErrBackpressure) {
			return c.replyErr(m.Seq, proto.CodeBackpressure, true, err) == nil
		}
		if err != nil {
			return c.replyErr(m.Seq, proto.CodeInternal, false, err) == nil
		}
		// The update is applied (WAL-appended) but not yet durable: take
		// a group-commit seat and ack only once the covering sync lands.
		if err := s.groupCommit(); err != nil {
			return c.replyErr(m.Seq, proto.CodeClosed, true, err) == nil
		}
		s.mWrites.Inc()
		return c.replyOK(m.Seq, 0) == nil

	case proto.OpScan:
		tbl, err := s.eng.OpenTable(m.Table)
		if err != nil {
			return c.replyErr(m.Seq, proto.CodeNoTable, false, err) == nil
		}
		// A one-key scan is a point read: answered inline, it needs no
		// credit channel and never occupies its seq in c.scans.
		point := m.Begin == m.End
		var ch chan uint32
		c.mu.Lock()
		_, dup := c.scans[m.Seq]
		if !dup && !point {
			ch = make(chan uint32, 16)
			c.scans[m.Seq] = ch
		}
		c.mu.Unlock()
		if dup {
			return c.replyErr(m.Seq, proto.CodeBadRequest, false, errors.New("scan seq already in use")) == nil
		}
		s.mScans.Inc()
		if point {
			return c.getInline(tbl, m.Seq, m.Begin)
		}
		credits := m.Credits
		if credits == 0 {
			credits = 1
		}
		c.scanWG.Add(1)
		go c.runScan(tbl, m.Seq, m.Begin, m.End, m.Limit, credits, ch)
		return true

	case proto.OpCredit:
		c.mu.Lock()
		ch := c.scans[m.Seq]
		c.mu.Unlock()
		if ch != nil {
			select {
			case ch <- m.Credits:
			case <-c.quit:
			}
		}
		return true

	case proto.OpBeginTx:
		// Unanswered. A refused begin is kept as a failed transaction, for
		// its commit to report; a begin naming an open transaction fails
		// that one.
		c.mu.Lock()
		wt := c.txs[m.TxID]
		c.mu.Unlock()
		if wt != nil {
			wt.fail(proto.CodeBadRequest, false, fmt.Errorf("transaction %d is already open", m.TxID))
			return true
		}
		tx, err := s.eng.BeginTx(masm.TxSnapshot)
		wt = &wireTx{tx: tx}
		if err != nil {
			wt.fail(proto.CodeClosed, true, err)
		}
		c.mu.Lock()
		c.txs[m.TxID] = wt
		c.mu.Unlock()
		return true

	case proto.OpTxUpdate:
		// Unanswered. Later updates of a failed transaction are skipped;
		// one for an unknown transaction is dropped (its commit answers
		// CodeNoTx).
		c.mu.Lock()
		wt := c.txs[m.TxID]
		c.mu.Unlock()
		if wt == nil || wt.err != nil {
			return true
		}
		var err error
		switch m.TxKind {
		case proto.TxPut:
			err = wt.tx.Insert(m.Table, m.Key, m.Body)
		case proto.TxDelete:
			err = wt.tx.Delete(m.Table, m.Key)
		case proto.TxModify:
			err = wt.tx.Modify(m.Table, m.Key, int(m.Off), m.Body)
		default:
			wt.fail(proto.CodeBadRequest, false, fmt.Errorf("unknown tx update kind %d", m.TxKind))
			return true
		}
		switch {
		case err == nil:
		case errors.Is(err, masm.ErrNoTable):
			wt.fail(proto.CodeNoTable, false, err)
		default:
			wt.fail(proto.CodeInternal, false, err)
		}
		return true

	case proto.OpTxCommit:
		c.mu.Lock()
		wt := c.txs[m.TxID]
		delete(c.txs, m.TxID)
		c.mu.Unlock()
		if wt == nil {
			return c.replyErr(m.Seq, proto.CodeNoTx, false, fmt.Errorf("unknown transaction %d", m.TxID)) == nil
		}
		if wt.err != nil {
			wt.abort()
			return c.replyErr(m.Seq, wt.code, wt.retry, wt.err) == nil
		}
		if err := wt.tx.Commit(); err != nil {
			switch {
			case errors.Is(err, masm.ErrWriteConflict):
				return c.replyErr(m.Seq, proto.CodeConflict, true, err) == nil
			case errors.Is(err, masm.ErrBackpressure):
				return c.replyErr(m.Seq, proto.CodeBackpressure, true, err) == nil
			}
			return c.replyErr(m.Seq, proto.CodeInternal, false, err) == nil
		}
		if err := s.groupCommit(); err != nil {
			return c.replyErr(m.Seq, proto.CodeClosed, true, err) == nil
		}
		s.mWrites.Inc()
		return c.replyOK(m.Seq, 0) == nil

	case proto.OpTxAbort:
		c.mu.Lock()
		wt := c.txs[m.TxID]
		delete(c.txs, m.TxID)
		c.mu.Unlock()
		if wt == nil {
			return c.replyErr(m.Seq, proto.CodeNoTx, false, fmt.Errorf("unknown transaction %d", m.TxID)) == nil
		}
		wt.abort()
		return c.replyOK(m.Seq, 0) == nil

	case proto.OpStats:
		blob, err := json.Marshal(s.eng.Metrics())
		if err != nil {
			return c.replyErr(m.Seq, proto.CodeInternal, false, err) == nil
		}
		return c.reply(&proto.Msg{Op: proto.OpStatsJSON, Seq: m.Seq, Body: blob}) == nil

	default:
		// Unknown op on a well-framed message: answer with a typed error
		// rather than killing the stream, so old servers degrade politely
		// under newer clients.
		return c.replyErr(m.Seq, proto.CodeBadRequest, false, fmt.Errorf("unknown op %d", m.Op)) == nil
	}
}

// getInline answers a one-key scan on the connection's own goroutine with
// a single final OpRows frame: the engine's point lookup returns at most
// one row, so there is nothing to stream, no credit to wait for (every
// scan opens with at least one) and no goroutine, credit channel or
// c.scans entry worth setting up.
func (c *conn) getInline(tbl *masm.Table, seq uint32, key uint64) bool {
	body, found, err := tbl.Get(key)
	if err != nil {
		return c.replyErr(seq, proto.CodeInternal, false, err) == nil
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf = proto.BeginRows(c.wbuf, seq)
	n := 0
	if found {
		c.wbuf = proto.AppendRow(c.wbuf, key, body)
		n = 1
		c.s.mScanRows.Inc()
	}
	if proto.FinishRows(c.wbuf, n, true) != nil {
		return false
	}
	_, err = c.c.Write(c.wbuf)
	return err == nil
}

// runScan streams one table scan as credit-gated row batches. Every
// OpRows frame (final included) consumes one credit, so at most the
// client's advertised window is ever in flight. When the connection
// dies mid-stream the credit wait unblocks via c.quit and the scan
// callback returns false, which closes the underlying query — no
// goroutine, pin, or snapshot outlives the connection.
//
// Each frame is built in place in the scan's own buffer, so a row is
// copied once, from the engine's page or update buffer into the frame,
// and the buffer is reused by every frame of the scan.
func (c *conn) runScan(tbl *masm.Table, seq uint32, begin, end, limit uint64, credits uint32, creditCh chan uint32) {
	defer func() {
		c.mu.Lock()
		delete(c.scans, seq)
		c.mu.Unlock()
		c.scanWG.Done()
	}()
	avail := int64(credits)
	frame := proto.BeginRows(nil, seq)
	head := len(frame) // rows start here
	rows := 0
	var sent uint64
	// flush ships the frame once a credit is available and begins the
	// next; it reports false when the scan must abort (dead connection).
	// Checking c.quit here, once per frame, stops an aborted scan within
	// one frame.
	flush := func(final bool) bool {
		select {
		case <-c.quit:
			return false
		default:
		}
		for avail == 0 {
			select {
			case n := <-creditCh:
				avail += int64(n)
			case <-c.quit:
				return false
			}
		}
		avail--
		if proto.FinishRows(frame, rows, final) != nil || c.writeFrame(frame) != nil {
			return false
		}
		c.s.mScanRows.Add(int64(rows))
		frame, rows = proto.BeginRows(frame, seq), 0
		return true
	}
	aborted := false
	err := tbl.Scan(begin, end, func(key uint64, body []byte) bool {
		frame = proto.AppendRow(frame, key, body)
		rows++
		sent++
		if limit > 0 && sent >= limit {
			return false
		}
		if rows >= scanBatchRows || len(frame)-head >= proto.MaxFrame/2 {
			if !flush(false) {
				aborted = true
				return false
			}
		}
		return true
	})
	if aborted {
		return
	}
	if err != nil {
		c.replyErr(seq, proto.CodeInternal, false, err)
		return
	}
	flush(true)
}
