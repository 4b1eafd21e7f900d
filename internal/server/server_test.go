package server

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"masm"
	"masm/internal/chaos"
	"masm/internal/obs"
	"masm/internal/proto"
	"masm/internal/storage"
)

// startServer builds an in-memory engine with the named tables and
// serves it on a loopback listener. Cleanup closes server then engine.
func startServer(t *testing.T, opts Options, tables ...string) (*Server, *masm.Engine, string) {
	t.Helper()
	eng := memEngine(t, tables...)
	srv, addr := serve(t, eng, opts)
	return srv, eng, addr
}

// memEngine builds an in-memory engine with the named tables.
func memEngine(t *testing.T, tables ...string) *masm.Engine {
	t.Helper()
	cfg := masm.DefaultConfig()
	cfg.CacheBytes = 8 << 20
	eng, err := masm.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range tables {
		if _, err := eng.CreateTable(name, masm.TableOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

// serve serves eng on a loopback listener. Cleanup closes server then
// engine.
func serve(t *testing.T, eng *masm.Engine, opts Options) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return serveOn(t, eng, opts, ln), ln.Addr().String()
}

// serveOn serves eng on ln. Cleanup closes server then engine.
func serveOn(t *testing.T, eng *masm.Engine, opts Options, ln net.Listener) *Server {
	srv := New(eng, opts)
	go srv.Serve(ln)
	t.Cleanup(func() {
		srv.Close()
		eng.Close()
	})
	return srv
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestServerEndToEnd drives every request type through a real TCP
// connection: writes, reads, streamed scans, transactions, stats.
func TestServerEndToEnd(t *testing.T) {
	_, _, addr := startServer(t, Options{}, "t0", "t1")
	c, err := proto.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for k := uint64(1); k <= 100; k++ {
		if err := c.Put("t0", k, []byte(fmt.Sprintf("val-%03d", k))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Delete("t0", 50); err != nil {
		t.Fatal(err)
	}
	if err := c.Modify("t0", 7, 4, []byte("XXX")); err != nil {
		t.Fatal(err)
	}

	got := map[uint64]string{}
	if err := c.Scan("t0", 0, ^uint64(0), 0, func(k uint64, b []byte) bool {
		got[k] = string(b)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 99 {
		t.Fatalf("scan returned %d rows, want 99", len(got))
	}
	if _, ok := got[50]; ok {
		t.Fatal("deleted key 50 still visible")
	}
	if got[7] != "val-XXX" {
		t.Fatalf("modify lost: key 7 = %q", got[7])
	}

	// Limit and range.
	n := 0
	if err := c.Scan("t0", 10, 20, 5, func(uint64, []byte) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("limited scan returned %d rows, want 5", n)
	}

	// Early stop from the consumer drains cleanly.
	n = 0
	if err := c.Scan("t0", 0, ^uint64(0), 0, func(uint64, []byte) bool { n++; return n < 3 }); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("early-stopped scan delivered %d rows, want 3", n)
	}

	// Cross-table transaction: both or neither.
	txid, err := c.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.TxPut(txid, "t0", 1000, []byte("tx-a")); err != nil {
		t.Fatal(err)
	}
	if err := c.TxPut(txid, "t1", 2000, []byte("tx-b")); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(txid); err != nil {
		t.Fatal(err)
	}
	for _, probe := range []struct {
		table string
		key   uint64
		want  string
	}{{"t0", 1000, "tx-a"}, {"t1", 2000, "tx-b"}} {
		found := false
		if err := c.Scan(probe.table, probe.key, probe.key, 0, func(k uint64, b []byte) bool {
			found = string(b) == probe.want
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if !found {
			t.Fatalf("committed tx row %s/%d missing", probe.table, probe.key)
		}
	}

	// Abort leaves nothing.
	txid, err = c.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.TxPut(txid, "t0", 3000, []byte("gone")); err != nil {
		t.Fatal(err)
	}
	if err := c.Abort(txid); err != nil {
		t.Fatal(err)
	}
	if err := c.Scan("t0", 3000, 3000, 0, func(uint64, []byte) bool {
		t.Fatal("aborted tx row visible")
		return false
	}); err != nil {
		t.Fatal(err)
	}

	// Commit on an unknown tx is a typed error, not a dead connection.
	err = c.Commit(9999)
	var we *proto.WireError
	if !errors.As(err, &we) || we.Code != proto.CodeNoTx {
		t.Fatalf("commit of unknown tx: err = %v, want CodeNoTx", err)
	}

	// Unknown table is typed too.
	if err := c.Put("nope", 1, nil); err == nil || !errors.As(err, &we) || we.Code != proto.CodeNoTable {
		t.Fatalf("put to unknown table: err = %v, want CodeNoTable", err)
	}
	// ...and the same type inside a transaction, reported by its commit.
	if txid, err = c.BeginTx(); err != nil {
		t.Fatal(err)
	}
	if err := c.TxPut(txid, "nope", 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(txid); err == nil || !errors.As(err, &we) || we.Code != proto.CodeNoTable {
		t.Fatalf("commit of tx put to unknown table: err = %v, want CodeNoTable", err)
	}

	blob, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(blob, []byte(`"masm_pool_used_bytes"`)) {
		t.Fatalf("stats JSON missing the registry's masm_pool_used_bytes: %s", blob)
	}
}

// TestServerConcurrentClients hammers one server from many connections
// and checks every acknowledged write is visible afterward.
func TestServerConcurrentClients(t *testing.T) {
	_, eng, addr := startServer(t, Options{}, "t0")
	const conns, per = 8, 200
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := proto.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < per; j++ {
				key := uint64(i)<<32 | uint64(j) | 1<<48
				if err := c.Put("t0", key, []byte(fmt.Sprintf("c%d-%d", i, j))); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	tbl, err := eng.OpenTable("t0")
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	if err := tbl.Scan(1<<48, ^uint64(0), func(uint64, []byte) bool { seen++; return true }); err != nil {
		t.Fatal(err)
	}
	if seen != conns*per {
		t.Fatalf("%d rows visible, want %d", seen, conns*per)
	}
}

// TestTornConnectionLeaksNothing kills a client mid-streamed-scan (with
// the credit window exhausted, so the server-side scan is parked in its
// credit wait) and checks the server sheds the scan completely: no
// goroutines, and no open query pinning the table against migration.
func TestTornConnectionLeaksNothing(t *testing.T) {
	_, eng, addr := startServer(t, Options{}, "t0")
	c0, err := proto.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	body := bytes.Repeat([]byte("x"), 64)
	for k := uint64(1); k <= 2000; k++ {
		if err := c0.Put("t0", k, body); err != nil {
			t.Fatal(err)
		}
	}
	c0.Close()
	waitFor(t, "c0's handler to exit", func() bool {
		return eng.Registry().Snapshot().Gauge("masm_server_conns") == 0
	})
	baseline := runtime.NumGoroutine()

	// Open a raw protocol connection: handshake, start a scan with a
	// 1-batch window, read exactly one batch, never credit — then die.
	rc := rawDial(t, addr)
	rc.handshake()
	rc.write(&proto.Msg{Op: proto.OpScan, Seq: 1, Table: "t0", End: ^uint64(0), Credits: 1})
	if r := rc.read(); r.Op != proto.OpRows || r.Final {
		t.Fatalf("first batch: op %d final %v", r.Op, r.Final)
	}
	// The server-side scan is now blocked waiting for a credit with an
	// open query pinning the store. Tear the connection.
	rc.nc.Close()

	waitFor(t, "scan goroutines to unwind", func() bool {
		return runtime.NumGoroutine() <= baseline
	})
	// The scan's query must be closed: a migration cannot proceed while
	// any query older than it is active.
	tbl, err := eng.OpenTable("t0")
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Migrate(); err != nil {
		t.Fatalf("migration blocked after torn connection: %v", err)
	}
}

// TestTornConnectionAbortsTransactions: a connection that dies with an
// open transaction must not leave its snapshot pinning migration.
func TestTornConnectionAbortsTransactions(t *testing.T) {
	_, eng, addr := startServer(t, Options{}, "t0")
	c, err := proto.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("t0", 1, []byte("seed")); err != nil {
		t.Fatal(err)
	}
	txid, err := c.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.TxPut(txid, "t0", 2, []byte("never committed")); err != nil {
		t.Fatal(err)
	}
	// TxPut only queues its frame: a round trip sends it, so the update is
	// in the transaction's write set before the connection tears.
	if err := c.Put("t0", 3, []byte("flush")); err != nil {
		t.Fatal(err)
	}
	c.Close()
	waitFor(t, "handler teardown", func() bool {
		return eng.Registry().Snapshot().Gauge("masm_server_conns") == 0
	})
	tbl, err := eng.OpenTable("t0")
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Migrate(); err != nil {
		t.Fatalf("migration blocked by abandoned tx snapshot: %v", err)
	}
	if err := tbl.Scan(2, 2, func(uint64, []byte) bool {
		t.Fatal("uncommitted tx write visible after torn connection")
		return false
	}); err != nil {
		t.Fatal(err)
	}
}

// TestGroupCommitAmortizes: concurrent writers must share fsyncs — the
// wal group size histogram has to show multi-ticket batches.
func TestGroupCommitAmortizes(t *testing.T) {
	_, eng, addr := startServer(t, Options{}, "t0")
	const conns, per = 16, 50
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := proto.Dial(addr)
			if err != nil {
				return
			}
			defer c.Close()
			for j := 0; j < per; j++ {
				c.Put("t0", uint64(i*per+j+1), []byte("v"))
			}
		}(i)
	}
	wg.Wait()
	h := eng.Registry().Snapshot().Histogram("masm_wal_group_size")
	if h == nil || h.Count == 0 {
		t.Fatal("no group commits recorded")
	}
	if h.Sum <= h.Count {
		t.Fatalf("group commit never batched: %d tickets over %d syncs", h.Sum, h.Count)
	}
	t.Logf("group commit: %d tickets over %d syncs (mean %.1f)", h.Sum, h.Count, h.Mean())
}

// TestGroupCommitStartsNoGoroutine: the server has no committer. New
// starts no goroutine, since each write's sync runs on its own
// connection's, and Close of a server that never served returns at once.
func TestGroupCommitStartsNoGoroutine(t *testing.T) {
	eng := memEngine(t, "t0")
	t.Cleanup(func() { eng.Close() })
	before := runtime.NumGoroutine()
	srv := New(eng, Options{})
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("New started %d goroutines", after-before)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupCommitNeverAcksThenLoses is the durability half of group
// commit: writes stream in from several connections while the WAL's
// backing device is power-cut at a sync boundary and the server is
// hard-stopped. After recovery, every write that was ACKED before the
// cut must be present — group commit may only defer the ack, never
// fabricate durability.
func TestGroupCommitNeverAcksThenLoses(t *testing.T) {
	dir := t.TempDir()
	var fb *chaos.FaultBackend
	open := func(withFaults bool) *masm.Engine {
		opts := masm.EngineDirOptions{DataBytes: 64 << 20}
		if withFaults {
			opts.WrapBackend = func(name string, be storage.Backend) storage.Backend {
				if name == "wal.log" {
					fb = chaos.NewFaultBackend(be, name, 1)
					return fb
				}
				return be
			}
		}
		eng, err := masm.OpenEngineDir(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	eng := open(true)
	if _, err := eng.CreateTable("t0", masm.TableOptions{}); err != nil {
		t.Fatal(err)
	}
	srv := New(eng, Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	addr := ln.Addr().String()

	const conns = 8
	var mu sync.Mutex
	acked := make(map[uint64]bool)
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := proto.Dial(addr)
			if err != nil {
				return
			}
			defer c.Close()
			for j := 0; ; j++ {
				key := uint64(i)<<32 | uint64(j) | 1<<40
				if err := c.Put("t0", key, []byte(fmt.Sprintf("w%d-%d", i, j))); err != nil {
					return // the power cut: this and later writes are unacked
				}
				mu.Lock()
				acked[key] = true
				mu.Unlock()
			}
		}(i)
	}
	// Let the fleet commit for a while, then cut power at the next WAL
	// sync: the sync fails, un-synced appends are lost (strict
	// KeepProb=0), and every later WAL operation errors.
	time.Sleep(100 * time.Millisecond)
	fb.ArmCrashAtSync(1, 0, false)
	wg.Wait()
	srv.Close()
	if !fb.Crashed() {
		t.Fatal("fault backend never crashed; the test drove no sync")
	}
	if err := eng.HardStop(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	n := len(acked)
	mu.Unlock()
	if n == 0 {
		t.Fatal("no writes were acknowledged before the cut")
	}

	eng2 := open(false)
	defer eng2.Close()
	tbl, err := eng2.OpenTable("t0")
	if err != nil {
		t.Fatal(err)
	}
	recovered := make(map[uint64]bool)
	if err := tbl.Scan(1<<40, ^uint64(0), func(k uint64, _ []byte) bool {
		recovered[k] = true
		return true
	}); err != nil {
		t.Fatal(err)
	}
	lost := 0
	for k := range acked {
		if !recovered[k] {
			lost++
		}
	}
	if lost > 0 {
		t.Fatalf("ack-then-lose: %d of %d acknowledged writes missing after recovery", lost, n)
	}
	t.Logf("durability held: %d acked writes all recovered (%d rows total)", n, len(recovered))
}

// TestServerCloseDrains: Close with live connections must not hang and
// must leave no handler goroutines.
func TestServerCloseDrains(t *testing.T) {
	srv, eng, addr := startServer(t, Options{}, "t0")
	var clients []*proto.Client
	for i := 0; i < 4; i++ {
		c, err := proto.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
		if err := c.Put("t0", uint64(i+1), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() { srv.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("server Close hung with live connections")
	}
	for _, c := range clients {
		c.Close()
	}
	if got := eng.Registry().Snapshot().Gauge("masm_server_conns"); got != 0 {
		t.Fatalf("%d connections still registered after Close", got)
	}
}

// startFileServer is startServer over a file-backed engine in a temporary
// directory: commits pay a real fsync, which is what the gathering window
// is sized from.
func startFileServer(t *testing.T, tables ...string) (*Server, *masm.Engine, string) {
	t.Helper()
	eng, err := masm.OpenEngineDir(t.TempDir(), masm.EngineDirOptions{DataBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range tables {
		if _, err := eng.CreateTable(name, masm.TableOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	srv, addr := serve(t, eng, Options{})
	return srv, eng, addr
}

func dial(t *testing.T, addr string) *proto.Client {
	t.Helper()
	c, err := proto.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestTwoWritersStillGroup guards what any change to the committer's
// gathering policy must keep: two closed-loop writers share every fsync
// (mean group size 2.0 today), or ingest throughput halves.
func TestTwoWritersStillGroup(t *testing.T) {
	_, eng, addr := startFileServer(t, "t0")
	clients := []*proto.Client{dial(t, addr), dial(t, addr)}
	run := func(base uint64, n int) {
		var wg sync.WaitGroup
		for i, c := range clients {
			wg.Add(1)
			go func(i int, c *proto.Client) {
				defer wg.Done()
				for j := 0; j < n; j++ {
					if err := c.Put("t0", base+uint64(i*n+j), []byte("v")); err != nil {
						t.Error(err)
						return
					}
				}
			}(i, c)
		}
		wg.Wait()
	}
	run(1, 100) // warm up
	before := eng.Registry().Snapshot().Histogram("masm_wal_group_size")
	run(10000, 1000)
	after := eng.Registry().Snapshot().Histogram("masm_wal_group_size")
	tickets, syncs := after.Sum-before.Sum, after.Count-before.Count
	mean := float64(tickets) / float64(syncs)
	t.Logf("two writers: %d tickets over %d syncs (mean %.2f)", tickets, syncs, mean)
	if mean < 1.8 {
		t.Fatalf("two closed-loop writers stopped grouping: mean group size %.2f < 1.8", mean)
	}
}

// TestPointScanInline: a one-key OpScan is answered on the connection's
// goroutine with one final frame — same rows, same counters, no scan
// state left behind — and a seq a streaming scan still holds is refused.
func TestPointScanInline(t *testing.T) {
	_, eng, addr := startServer(t, Options{}, "t0")
	c := dial(t, addr)
	for k := uint64(1); k <= 50; k++ {
		if err := c.Put("t0", k, []byte(fmt.Sprintf("val-%03d", k))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Delete("t0", 9); err != nil {
		t.Fatal(err)
	}
	snap := eng.Registry().Snapshot()
	scans0, rows0 := snap.Counter("masm_server_scans"), snap.Counter("masm_server_scan_rows")
	gets0 := snap.Counter("masm_gets", obs.L("table", "t0"))
	started0 := snap.Counter("masm_scans_started", obs.L("table", "t0"))
	for k := uint64(1); k <= 60; k++ {
		var got []byte
		n := 0
		if err := c.Scan("t0", k, k, 1, func(key uint64, body []byte) bool {
			if key != k {
				t.Errorf("scan of %d returned key %d", k, key)
			}
			got, n = append([]byte(nil), body...), n+1
			return true
		}); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("val-%03d", k)
		switch {
		case k == 9 || k > 50:
			if n != 0 {
				t.Fatalf("key %d: %d rows, want none", k, n)
			}
		case n != 1 || string(got) != want:
			t.Fatalf("key %d: %d rows, body %q, want %q", k, n, got, want)
		}
	}
	snap = eng.Registry().Snapshot()
	if d := snap.Counter("masm_server_scans") - scans0; d != 60 {
		t.Errorf("masm_server_scans moved by %d, want 60", d)
	}
	if d := snap.Counter("masm_server_scan_rows") - rows0; d != 49 {
		t.Errorf("masm_server_scan_rows moved by %d, want 49", d)
	}
	if d := snap.Counter("masm_gets", obs.L("table", "t0")) - gets0; d != 60 {
		t.Errorf("masm_gets moved by %d, want 60: one-key scans did not take the point lookup", d)
	}
	if d := snap.Counter("masm_scans_started", obs.L("table", "t0")) - started0; d != 0 {
		t.Errorf("masm_scans_started moved by %d: a point read opened a range scan", d)
	}
}

// gathers is how many commit batches the server has held open for
// companions so far.
func gathers(t *testing.T, eng *masm.Engine) int64 {
	t.Helper()
	h := eng.Registry().Snapshot().Histogram("masm_server_gather_wait_ns")
	if h == nil {
		t.Fatal("masm_server_gather_wait_ns is not registered")
	}
	return h.Count
}

// readLoop issues one-key reads on c until stop closes; it returns how many
// it made.
func readLoop(t *testing.T, c *proto.Client, stop chan struct{}) <-chan int {
	n := make(chan int, 1)
	go func() {
		reads := 0
		defer func() { n <- reads }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := c.Scan("t0", 1, 1, 1, func(uint64, []byte) bool { return true }); err != nil {
				t.Error(err)
				return
			}
			reads++
		}
	}()
	return n
}

// TestLoneWriterBesideReader: a writer whose only neighbour reads pays one
// fsync per commit and no gathering window — the reader never sends the
// ticket a window would wait for.
func TestLoneWriterBesideReader(t *testing.T) {
	_, eng, addr := startFileServer(t, "t0")
	reader, writer := dial(t, addr), dial(t, addr)
	if err := writer.Put("t0", 1, []byte("v")); err != nil {
		t.Fatal(err)
	}
	before := gathers(t, eng)
	stop := make(chan struct{})
	reads := readLoop(t, reader, stop)
	for k := uint64(2); k < 502; k++ {
		if err := writer.Put("t0", k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	if n := <-reads; n == 0 {
		t.Fatal("the reader made no reads while the writer wrote")
	}
	if d := gathers(t, eng) - before; d != 0 {
		t.Fatalf("%d of 500 lone-writer commits were held open for a companion", d)
	}
}

// TestAlternatingWriterNeverGathers: a connection that alternates one-key
// reads and puts, beside a reader, is a lone writer: every read clears its
// mark and every put sets it once, so the writer count never passes one,
// no batch is held open, and the count is back at zero after its last read
// and after its connection closes.
func TestAlternatingWriterNeverGathers(t *testing.T) {
	srv, eng, addr := startFileServer(t, "t0")
	reader, alt := dial(t, addr), dial(t, addr)
	before := gathers(t, eng)
	stop := make(chan struct{})
	reads := readLoop(t, reader, stop)
	for k := uint64(1); k <= 300; k++ {
		if err := alt.Put("t0", k, []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := alt.Scan("t0", k, k, 1, func(uint64, []byte) bool { return true }); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-reads
	if d := gathers(t, eng) - before; d != 0 {
		t.Fatalf("%d of 300 commits were held open for a companion", d)
	}
	if w := srv.writers.Load(); w != 0 {
		t.Fatalf("writer count %d after the alternating connection's last read, want 0", w)
	}
	if err := alt.Put("t0", 1000, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if w := srv.writers.Load(); w != 1 {
		t.Fatalf("writer count %d after a put, want 1", w)
	}
	alt.Close()
	waitFor(t, "the closed writer to leave the count", func() bool { return srv.writers.Load() == 0 })
}

// TestIdleWriterDoesNotHoldCommits: a connection that wrote once and then
// went quiet is not waited for once maxGather has passed since its reply,
// though it still counts as a writer: none of another connection's 300
// commits gathers.
func TestIdleWriterDoesNotHoldCommits(t *testing.T) {
	srv, eng, addr := startFileServer(t, "t0")
	idle, busy := dial(t, addr), dial(t, addr)
	if err := idle.Put("t0", 1, []byte("v")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(25 * maxGather)
	before := gathers(t, eng)
	for k := uint64(2); k < 302; k++ {
		if err := busy.Put("t0", k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if d := gathers(t, eng) - before; d != 0 {
		t.Fatalf("%d of 300 commits were held open for a writer that went idle", d)
	}
	if w := srv.writers.Load(); w != 2 {
		t.Fatalf("writer count %d, want 2: the idle writer is still one", w)
	}
}

// TestTxCommitBackpressure: a wire write the engine's admission refuses —
// the cache full, a reader vetoing migration, the scheduler running —
// reaches the client as typed, retryable backpressure, publishes nothing,
// and is counted once in masm_server_backpressure_rejects, whether it is a
// put or a transaction's commit. The cases run in parallel, each on its
// own engine, so the engine's 2 s admission bound is paid once.
func TestTxCommitBackpressure(t *testing.T) {
	cases := []struct {
		name  string
		write func(c *proto.Client) error
	}{
		{"Put", func(c *proto.Client) error { return c.Put("t0", 1, []byte("refused")) }},
		{"TxCommit", func(c *proto.Client) error {
			txid, err := c.BeginTx()
			if err != nil {
				return err
			}
			if err := c.TxPut(txid, "t0", 1, []byte("refused")); err != nil {
				return err
			}
			return c.Commit(txid)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := masm.DefaultConfig()
			cfg.CacheBytes = 1 << 20
			eng, err := masm.NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tbl, err := eng.CreateTable("t0", masm.TableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			body := bytes.Repeat([]byte("x"), 100)
			for k := uint64(2); tbl.CacheFill() < masm.AdmitFill; k += 2 {
				if err := tbl.Insert(k, body); err != nil {
					t.Fatal(err)
				}
			}
			reader, err := tbl.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			defer reader.Close()
			if _, err := eng.StartMigrationScheduler(0); err != nil {
				t.Fatal(err)
			}
			_, addr := serve(t, eng, Options{})
			err = tc.write(dial(t, addr))
			if !proto.ErrBackpressure(err) || !retryable(err) {
				t.Fatalf("write refused by admission: %v, want typed retryable backpressure", err)
			}
			if _, found, err := tbl.Get(1); err != nil || found {
				t.Fatalf("refused write's key: found %v, err %v", found, err)
			}
			if n := eng.Registry().Snapshot().Counter("masm_server_backpressure_rejects"); n != 1 {
				t.Fatalf("masm_server_backpressure_rejects = %d, want 1", n)
			}
		})
	}
}

// retryable reports whether err is a wire error carrying the retryable bit.
func retryable(err error) bool {
	var we *proto.WireError
	return errors.As(err, &we) && we.Retryable
}
