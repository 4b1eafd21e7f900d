package server

import (
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"masm/internal/proto"
)

// rawConn speaks the protocol frame by frame, for requests and orders of
// requests proto.Client never sends.
type rawConn struct {
	t          *testing.T
	nc         net.Conn
	wbuf, rbuf []byte
	m          proto.Msg
}

func rawDial(t *testing.T, addr string) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	return &rawConn{t: t, nc: nc}
}

func (rc *rawConn) write(m *proto.Msg) {
	rc.t.Helper()
	var err error
	if rc.wbuf, err = proto.WriteFrame(rc.nc, rc.wbuf, m); err != nil {
		rc.t.Fatal(err)
	}
}

// read returns the next frame; it is valid until the next read.
func (rc *rawConn) read() *proto.Msg {
	rc.t.Helper()
	var err error
	if rc.rbuf, err = proto.ReadFrame(rc.nc, rc.rbuf, &rc.m); err != nil {
		rc.t.Fatal(err)
	}
	return &rc.m
}

func (rc *rawConn) handshake() {
	rc.t.Helper()
	rc.write(&proto.Msg{Op: proto.OpHello, Magic: proto.Magic, Version: proto.Version})
	if r := rc.read(); r.Op != proto.OpOK {
		rc.t.Fatalf("handshake reply op %d", r.Op)
	}
}

// countListener hands out connections that count the server's Write calls
// (one per reply frame: every reply is written whole) and its Read calls.
type countListener struct {
	net.Listener
	writes, reads atomic.Int64
}

func (l *countListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countConn{Conn: nc, l: l}, nil
}

type countConn struct {
	net.Conn
	l *countListener
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.reads.Add(1)
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	c.l.writes.Add(1)
	return c.Conn.Write(p)
}

// TestTxRepliesToCommitOnly: a transaction of 100 updates is one round
// trip. Its begin and updates get no reply, they reach the server in the
// commit's write, and the server reads that burst in a few calls.
func TestTxRepliesToCommitOnly(t *testing.T) {
	eng := memEngine(t, "t0")
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &countListener{Listener: inner}
	serveOn(t, eng, Options{}, ln)
	c := dial(t, inner.Addr().String())

	const puts = 100
	writes0, reads0 := ln.writes.Load(), ln.reads.Load()
	txid, err := c.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 100)
	for k := uint64(1); k <= puts; k++ {
		if err := c.TxPut(txid, "t0", k, body); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Commit(txid); err != nil {
		t.Fatal(err)
	}
	// Every read the server made for these frames returned before it
	// wrote the commit's reply.
	writes, reads := ln.writes.Load()-writes0, ln.reads.Load()-reads0
	t.Logf("BeginTx + %d TxPut + Commit: %d reply frames, %d reads", puts, writes, reads)
	if writes != 1 {
		t.Fatalf("%d reply frames, want 1 (the Commit's)", writes)
	}
	if reads > 8 {
		t.Fatalf("%d reads for %d request frames, want a handful", reads, puts+2)
	}
	tbl, err := eng.OpenTable("t0")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := tbl.Scan(0, ^uint64(0), func(uint64, []byte) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != puts {
		t.Fatalf("%d rows committed, want %d", n, puts)
	}
}

// wireCode returns err's wire code and retryable bit, failing the test if
// err is not a WireError.
func wireCode(t *testing.T, err error) (uint16, bool) {
	t.Helper()
	var we *proto.WireError
	if !errors.As(err, &we) {
		t.Fatalf("err = %v, want a WireError", err)
	}
	return we.Code, we.Retryable
}

// TestTxFailureReportedAtCommit: an update to a missing table is accepted
// silently, and the commit fails with its code, publishes nothing and
// retires the transaction.
func TestTxFailureReportedAtCommit(t *testing.T) {
	_, eng, addr := startServer(t, Options{}, "t0")
	c := dial(t, addr)
	txid, err := c.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []struct {
		table string
		key   uint64
	}{{"t0", 1}, {"nope", 2}, {"t0", 3}} {
		if err := c.TxPut(txid, u.table, u.key, []byte("v")); err != nil {
			t.Fatalf("TxPut(%s, %d) = %v, want nil: updates are unanswered", u.table, u.key, err)
		}
	}
	code, retry := wireCode(t, c.Commit(txid))
	if code != proto.CodeNoTable || retry {
		t.Fatalf("commit: code %d retryable %v, want CodeNoTable, not retryable", code, retry)
	}
	tbl, err := eng.OpenTable("t0")
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Scan(0, ^uint64(0), func(k uint64, _ []byte) bool {
		t.Errorf("key %d of a failed transaction is visible", k)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if code, _ := wireCode(t, c.Commit(txid)); code != proto.CodeNoTx {
		t.Fatalf("second commit: code %d, want CodeNoTx", code)
	}
}

// TestTxBadKindReportedAtCommit: an update of an unknown kind is a bad
// request, reported by the commit.
func TestTxBadKindReportedAtCommit(t *testing.T) {
	_, _, addr := startServer(t, Options{}, "t0")
	rc := rawDial(t, addr)
	rc.handshake()
	const txid = 5
	rc.write(&proto.Msg{Op: proto.OpBeginTx, Seq: 1, TxID: txid})
	rc.write(&proto.Msg{Op: proto.OpTxUpdate, Seq: 2, TxID: txid, TxKind: 9, Table: "t0", Key: 1})
	rc.write(&proto.Msg{Op: proto.OpTxCommit, Seq: 3, TxID: txid})
	if r := rc.read(); r.Seq != 3 || r.Op != proto.OpErr || r.Code != proto.CodeBadRequest || r.Retryable {
		t.Fatalf("commit reply: seq %d op %d code %d retryable %v, want seq 3 CodeBadRequest", r.Seq, r.Op, r.Code, r.Retryable)
	}
}

// TestTxUpdateForUnknownTxDropped: an update naming no open transaction
// gets no reply and leaves the connection serving.
func TestTxUpdateForUnknownTxDropped(t *testing.T) {
	_, _, addr := startServer(t, Options{}, "t0")
	rc := rawDial(t, addr)
	rc.handshake()
	rc.write(&proto.Msg{Op: proto.OpTxUpdate, Seq: 1, TxID: 9999, TxKind: proto.TxPut, Table: "t0", Key: 1})
	rc.write(&proto.Msg{Op: proto.OpPut, Seq: 2, Table: "t0", Key: 2, Body: []byte("v")})
	if r := rc.read(); r.Seq != 2 || r.Op != proto.OpOK {
		t.Fatalf("first reply: seq %d op %d, want the Put's OK (seq 2)", r.Seq, r.Op)
	}
}

// TestHandshakeRefusesOtherVersion: a client of another protocol version
// is told so and disconnected, before it can send a request whose reply
// it would wait for in vain. Version 3 is the only one served.
func TestHandshakeRefusesOtherVersion(t *testing.T) {
	_, _, addr := startServer(t, Options{}, "t0")
	for _, v := range []uint16{1, 2, proto.Version + 1} {
		rc := rawDial(t, addr)
		rc.write(&proto.Msg{Op: proto.OpHello, Magic: proto.Magic, Version: v})
		r := rc.read()
		if r.Op != proto.OpErr || r.Code != proto.CodeBadRequest {
			t.Fatalf("Hello v%d reply: op %d code %d, want OpErr CodeBadRequest", v, r.Op, r.Code)
		}
		if !strings.Contains(r.ErrMsg, fmt.Sprintf("version %d", v)) || !strings.Contains(r.ErrMsg, "speaks 3") {
			t.Fatalf("refusal %q does not name both versions", r.ErrMsg)
		}
		var m proto.Msg
		if _, err := proto.ReadFrame(rc.nc, nil, &m); err != io.EOF {
			t.Fatalf("after refusal: read err %v (op %d), want EOF", err, m.Op)
		}
	}
}

// TestTxBeginRefusedReportedAtCommit: a begin the engine refuses (it is
// closed) gets no reply; the transaction's commit reports it as
// CodeClosed, retryable, and an abort of such a transaction answers OK.
func TestTxBeginRefusedReportedAtCommit(t *testing.T) {
	_, eng, addr := startServer(t, Options{}, "t0")
	c := dial(t, addr)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	txid, err := c.BeginTx()
	if err != nil {
		t.Fatalf("BeginTx = %v, want nil: begins are unanswered", err)
	}
	if err := c.TxPut(txid, "t0", 1, []byte("v")); err != nil {
		t.Fatal(err)
	}
	code, retry := wireCode(t, c.Commit(txid))
	if code != proto.CodeClosed || !retry {
		t.Fatalf("commit: code %d retryable %v, want CodeClosed, retryable", code, retry)
	}
	if txid, err = c.BeginTx(); err != nil {
		t.Fatal(err)
	}
	if err := c.Abort(txid); err != nil {
		t.Fatalf("abort of a refused begin: %v, want OK", err)
	}
	if code, _ := wireCode(t, c.Commit(txid)); code != proto.CodeNoTx {
		t.Fatalf("commit after abort: code %d, want CodeNoTx", code)
	}
}

// TestTxBeginReusedIDFailsAtCommit: a begin naming a transaction that is
// still open fails that transaction: its commit answers CodeBadRequest and
// publishes nothing, and the id is free again afterwards.
func TestTxBeginReusedIDFailsAtCommit(t *testing.T) {
	_, eng, addr := startServer(t, Options{}, "t0")
	rc := rawDial(t, addr)
	rc.handshake()
	const txid = 7
	rc.write(&proto.Msg{Op: proto.OpBeginTx, Seq: 1, TxID: txid})
	rc.write(&proto.Msg{Op: proto.OpTxUpdate, Seq: 2, TxID: txid, TxKind: proto.TxPut, Table: "t0", Key: 1, Body: []byte("a")})
	rc.write(&proto.Msg{Op: proto.OpBeginTx, Seq: 3, TxID: txid})
	rc.write(&proto.Msg{Op: proto.OpTxUpdate, Seq: 4, TxID: txid, TxKind: proto.TxPut, Table: "t0", Key: 2, Body: []byte("b")})
	rc.write(&proto.Msg{Op: proto.OpTxCommit, Seq: 5, TxID: txid})
	if r := rc.read(); r.Seq != 5 || r.Op != proto.OpErr || r.Code != proto.CodeBadRequest || r.Retryable {
		t.Fatalf("commit reply: seq %d op %d code %d retryable %v, want seq 5 CodeBadRequest, not retryable", r.Seq, r.Op, r.Code, r.Retryable)
	}
	tbl, err := eng.OpenTable("t0")
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Scan(0, ^uint64(0), func(k uint64, _ []byte) bool {
		t.Errorf("key %d of a failed transaction is visible", k)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	// The failed transaction is retired and its snapshot released: the id
	// begins afresh, and nothing pins the table against migration.
	rc.write(&proto.Msg{Op: proto.OpBeginTx, Seq: 6, TxID: txid})
	rc.write(&proto.Msg{Op: proto.OpTxUpdate, Seq: 7, TxID: txid, TxKind: proto.TxPut, Table: "t0", Key: 3, Body: []byte("c")})
	rc.write(&proto.Msg{Op: proto.OpTxCommit, Seq: 8, TxID: txid})
	if r := rc.read(); r.Seq != 8 || r.Op != proto.OpOK {
		t.Fatalf("commit of the reused id: seq %d op %d code %d, want OK", r.Seq, r.Op, r.Code)
	}
	if err := tbl.Migrate(); err != nil {
		t.Fatalf("migration blocked after the failed transaction: %v", err)
	}
	if _, found, err := tbl.Get(3); err != nil || !found {
		t.Fatalf("key 3 after commit: found %v, err %v", found, err)
	}
}

// TestTornConnectionWithBegunTxLeaksNothing: a connection torn while it
// holds begun transactions — one untouched, one with an update — leaves no
// goroutine, pin or visible write behind.
func TestTornConnectionWithBegunTxLeaksNothing(t *testing.T) {
	_, eng, addr := startServer(t, Options{}, "t0")
	baseline := runtime.NumGoroutine()
	rc := rawDial(t, addr)
	rc.handshake()
	rc.write(&proto.Msg{Op: proto.OpBeginTx, Seq: 1, TxID: 1})
	rc.write(&proto.Msg{Op: proto.OpBeginTx, Seq: 2, TxID: 2})
	rc.write(&proto.Msg{Op: proto.OpTxUpdate, Seq: 3, TxID: 2, TxKind: proto.TxPut, Table: "t0", Key: 1, Body: []byte("never committed")})
	// A round trip: the server has handled the begins and the update.
	rc.write(&proto.Msg{Op: proto.OpStats, Seq: 4})
	if r := rc.read(); r.Seq != 4 || r.Op != proto.OpStatsJSON {
		t.Fatalf("stats reply: seq %d op %d", r.Seq, r.Op)
	}
	rc.nc.Close()
	waitFor(t, "handler teardown", func() bool {
		return eng.Registry().Snapshot().Gauge("masm_server_conns") == 0
	})
	waitFor(t, "the connection's goroutines to exit", func() bool {
		return runtime.NumGoroutine() <= baseline
	})
	tbl, err := eng.OpenTable("t0")
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Migrate(); err != nil {
		t.Fatalf("migration blocked by a torn connection's transactions: %v", err)
	}
	if _, found, err := tbl.Get(1); err != nil || found {
		t.Fatalf("uncommitted key: found %v, err %v", found, err)
	}
}

// TestTxConcurrentOnOneClient interleaves many transactions' unanswered
// updates on one client beside a scanner and a writer. Every commit lands,
// each scan sees every transaction whole or not at all, and the table ends
// equal to the model.
func TestTxConcurrentOnOneClient(t *testing.T) {
	_, eng, addr := startServer(t, Options{}, "t0")
	c := dial(t, addr)
	const workers, txs, puts = 8, 25, 40
	// Worker w's transaction i rewrites keys txKey(w, 0..puts-1) with
	// bodies "w/i/j".
	txKey := func(w, j int) uint64 { return 1<<32 | uint64(w)<<16 | uint64(j) }

	var mu sync.Mutex
	model := map[uint64]string{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < txs; i++ {
				txid, err := c.BeginTx()
				if err != nil {
					t.Error(err)
					return
				}
				for j := 0; j < puts; j++ {
					if err := c.TxPut(txid, "t0", txKey(w, j), []byte(fmt.Sprintf("%d/%d/%d", w, i, j))); err != nil {
						t.Error(err)
						return
					}
				}
				if err := c.Commit(txid); err != nil {
					t.Errorf("worker %d commit %d: %v", w, i, err)
					return
				}
			}
			mu.Lock()
			for j := 0; j < puts; j++ {
				model[txKey(w, j)] = fmt.Sprintf("%d/%d/%d", w, txs-1, j)
			}
			mu.Unlock()
		}(w)
	}

	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(2)
	go func() { // scanner: a transaction's keys all carry its number
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			seen := map[int]int{} // worker -> transaction number
			if err := c.Scan("t0", 1<<32, 1<<33, 0, func(k uint64, b []byte) bool {
				var w, i, j int
				if _, err := fmt.Sscanf(string(b), "%d/%d/%d", &w, &i, &j); err != nil {
					t.Errorf("key %#x: body %q: %v", k, b, err)
					return false
				}
				if prev, ok := seen[w]; ok && prev != i {
					t.Errorf("one scan saw worker %d's transactions %d and %d", w, prev, i)
					return false
				}
				seen[w] = i
				return true
			}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // writer: single puts on their own keys
		defer bg.Done()
		for k := uint64(1); k <= 2000; k++ {
			select {
			case <-stop:
				return
			default:
			}
			body := fmt.Sprintf("put-%d", k)
			if err := c.Put("t0", k, []byte(body)); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			model[k] = body
			mu.Unlock()
		}
	}()
	wg.Wait()
	close(stop)
	bg.Wait()

	tbl, err := eng.OpenTable("t0")
	if err != nil {
		t.Fatal(err)
	}
	got := map[uint64]string{}
	if err := tbl.Scan(0, ^uint64(0), func(k uint64, b []byte) bool {
		got[k] = string(b)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(model) {
		t.Errorf("%d rows, model has %d", len(got), len(model))
	}
	for k, want := range model {
		if got[k] != want {
			t.Fatalf("key %#x = %q, want %q", k, got[k], want)
		}
	}
}
