package masm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"masm/internal/sim"
	"masm/internal/table"
	"masm/internal/update"
)

// TestQueryEachZeroAllocs gates the merged scan's push loop: once a query
// is under way, Each allocates nothing per row it hands on. The loop is
// stepped one row at a time (fn stops every call, and the next call
// resumes), over two stretches of one table: keys below n+1 carry no
// update, so their rows go straight from the page batch to fn; above it
// every row carries a folded insert, replace or modify (deletes drop rows
// in between), from runs and the buffer alike: the fold returns payloads
// in place and patches modifies in the query's scratch.
func TestQueryEachZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is meaningless under the race detector")
	}
	const n = 20000
	e := newEnv(t, n, smallConfig())
	for i := n / 2; i < n; i++ {
		key := uint64(i+1) * 2
		var rec update.Record
		switch i % 8 {
		case 0:
			rec = update.Record{Key: key, Op: update.Delete}
		case 1:
			rec = update.Record{Key: key, Op: update.Replace, Payload: body(key+1, 92)}
		case 2:
			rec = update.Record{Key: key - 1, Op: update.Insert, Payload: body(key-1, 92)}
		default:
			rec = update.Record{Key: key, Op: update.Modify,
				Payload: update.EncodeFields([]update.Field{{Off: uint16(i % 80), Value: []byte{byte(i), byte(i >> 8)}}})}
		}
		e.apply(rec)
	}
	if e.store.Runs() == 0 || e.store.buf.Bytes() == 0 {
		t.Fatalf("want updates in runs and in the buffer: %d runs, %d buffered bytes", e.store.Runs(), e.store.buf.Bytes())
	}
	for _, tc := range []struct {
		name       string
		begin, end uint64
	}{{"data-only", 0, n}, {"folded", n + 1, ^uint64(0)}} {
		t.Run(tc.name, func(t *testing.T) {
			q, err := e.store.NewQuery(e.now, tc.begin, tc.end, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer q.Close()
			rows := 0
			one := func(uint64, []byte) bool { rows++; return false }
			next := func() {
				if err := q.Each(one); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 100; i++ { // warm up: the first batch and the scratch body
				next()
			}
			if avg := testing.AllocsPerRun(4000, next); avg != 0 {
				t.Fatalf("Query.Each allocates %v per row in steady state, want 0", avg)
			}
			if rows != 4101 { // 100, AllocsPerRun's warm-up call, 4000
				t.Fatalf("query ended during the gate: %d rows", rows)
			}
		})
	}
}

// TestScanBuffersRecycled: a query's scan buffer goes back to its pool
// when it closes, so back-to-back scans across three ScanIO batches
// allocate far less than one buffer each.
func TestScanBuffersRecycled(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled items at random")
	}
	e := newEnv(t, 30000, smallConfig())
	e.applyRandom(200)
	scanIO := table.DefaultConfig().ScanIO
	scan := func() {
		q, err := e.store.NewQuery(e.now, 0, ^uint64(0), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer q.Close()
		if _, _, err := q.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.tbl.SizeBytes(); got <= int64(3*scanIO) {
		t.Fatalf("a %d-byte table spans no more than three scan batches", got)
	}
	// One P, as in AllocsPerRun: a pooled buffer put back on one P is
	// cached there for the next scan on it.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	scan()
	const scans = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < scans; i++ {
		scan()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / scans; per >= uint64(scanIO/2) {
		t.Fatalf("a scan allocates %d bytes, want under %d (half a scan buffer)", per, scanIO/2)
	}
}

// TestConcurrentScansRecycledBuffers runs scans that cross scan-batch
// boundaries on two goroutines while a third inserts and modifies rows:
// pooled scan buffers and per-query scratch bodies must never be shared
// by two live queries. Each body is checked against the model as of its
// query's snapshot the moment the query hands it on, before the next row.
func TestConcurrentScansRecycledBuffers(t *testing.T) {
	concurrentScans(t, 6000, 50)
}

// TestConcurrentScansRecycledRunBufs is TestConcurrentScansRecycledBuffers
// with five times the writes: eight or more runs, each range crossing
// several run reads per run and dozens of update-window refills, while
// the writer's flushes add runs and query setup merges them once they
// outnumber the query pages. Freed run-read buffers are poisoned, so a
// buffer recycled while a record of it is still in the update window, in
// the fold or in fn's hands shows as a wrong body.
func TestConcurrentScansRecycledRunBufs(t *testing.T) {
	s := concurrentScans(t, 30000, 25)
	if st := s.Stats(); st.TwoPassMerges == 0 || st.OnePassRuns < 16 {
		t.Fatalf("%d flushes and %d two-pass merges: the scans did not run beside both", st.OnePassRuns, st.TwoPassMerges)
	}
}

// concurrentScans loads 30,000 rows, makes half of nWrites inserts and
// modifies, then the other half on one goroutine while two others each
// run nScans queries of about 10,000 rows, checking every body as it is
// handed on. It returns the store.
func concurrentScans(t *testing.T, nWrites, nScans int) *Store {
	const rows = 30000
	e := newEnv(t, rows, smallConfig())
	s := e.store

	// The writer's updates, fixed in advance: versions[k] lists the body of
	// key k after each write to it, tagged with the write's index.
	type version struct {
		seq  int
		body []byte
	}
	versions := make(map[uint64][]version)
	base := func(key uint64) []byte {
		if key%2 == 0 && key <= 2*rows {
			return body(key, 92)
		}
		return nil
	}
	rng := rand.New(rand.NewSource(7))
	var writes []update.Record
	for i := 0; i < nWrites; i++ {
		key := uint64(rng.Intn(2*rows)) + 1
		cur := base(key)
		if vs := versions[key]; len(vs) > 0 {
			cur = vs[len(vs)-1].body
		}
		var rec update.Record
		next := make([]byte, 92)
		if cur == nil || rng.Intn(4) == 0 {
			binary.LittleEndian.PutUint64(next, key)
			binary.LittleEndian.PutUint64(next[8:], uint64(i))
			copy(next[16:], body(key+uint64(i), 76))
			rec = update.Record{Key: key, Op: update.Insert, Payload: next}
		} else {
			val := body(key*7+uint64(i), 24)
			copy(next, cur)
			copy(next[20:], val)
			rec = update.Record{Key: key, Op: update.Modify, Payload: update.EncodeFields([]update.Field{{Off: 20, Value: val}})}
		}
		versions[key] = append(versions[key], version{seq: i, body: next})
		writes = append(writes, rec)
	}
	// want is key's body as of the first n writes, nil if it has none.
	want := func(key uint64, n int) []byte {
		vs := versions[key]
		for i := len(vs) - 1; i >= 0; i-- {
			if vs[i].seq < n {
				return vs[i].body
			}
		}
		return base(key)
	}

	// applied counts the writes made; mu orders a snapshot against them.
	var mu sync.RWMutex
	applied := 0
	write := func(i int) bool {
		mu.Lock()
		defer mu.Unlock()
		if _, err := s.ApplyAuto(0, writes[i]); err != nil {
			t.Error(err)
			return false
		}
		applied++
		return true
	}
	for i := 0; i < len(writes)/2; i++ { // half before the scans start
		if !write(i) {
			return s
		}
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := len(writes) / 2; i < len(writes); i++ {
			if !write(i) {
				return
			}
		}
	}()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; i < nScans; i++ {
				// About 10,000 rows: every range crosses a batch boundary.
				begin := uint64(rng.Intn(rows))
				end := begin + 20000
				mu.RLock()
				sn := s.Snapshot()
				n := applied
				mu.RUnlock()
				err := checkScan(sn, begin, end, func(key uint64) []byte { return want(key, n) })
				sn.Close()
				if err != nil {
					t.Errorf("scan %d of goroutine %d, [%d,%d] at write %d: %v", i, g, begin, end, n, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return s
}

// checkScan runs one query over [begin, end] at sn and checks each row's
// body against want before the next is read, then that no row want
// expects is missing.
func checkScan(sn *Snapshot, begin, end uint64, want func(key uint64) []byte) error {
	q, err := sn.NewQuery(sim.Time(0), begin, end, nil)
	if err != nil {
		return err
	}
	defer q.Close()
	got := 0
	var bad error
	err = q.Each(func(key uint64, body []byte) bool {
		if w := want(key); !bytes.Equal(body, w) {
			bad = fmt.Errorf("key %d: body %x, want %x", key, body, w)
			return false
		}
		got++
		return true
	})
	if err != nil || bad != nil {
		return errors.Join(err, bad)
	}
	n := 0
	for k := begin; k <= end; k++ {
		if want(k) != nil {
			n++
		}
	}
	if got != n {
		return fmt.Errorf("%d rows, want %d", got, n)
	}
	return nil
}
