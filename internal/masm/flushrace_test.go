package masm

import (
	"fmt"
	"testing"

	"masm/internal/sim"
	"masm/internal/storage"
	"masm/internal/table"
	"masm/internal/update"
)

// TestScanSurvivesFlushThenMergeOfFlushRun is a regression from the
// in-place Mem_scan: the buffer a scan was reading is flushed, and the
// flush run is consumed by a query-setup merge before the scan resumes.
// An in-place reader had to find its records again through the merge, and
// once latched onto the wrong run and silently dropped them. The scan must
// still deliver every record committed before it started.
func TestScanSurvivesFlushThenMergeOfFlushRun(t *testing.T) {
	// Tiny geometry: 256 KB cache at 4 KB pages → M=8, S=4, QueryPages=4,
	// so 5+ runs force a merge at the next query setup.
	cfg := DefaultConfig(256 << 10)
	cfg.SSDPage = 4 << 10
	cfg.Run.IOSize = 16 << 10
	cfg.Run.IndexGranularity = 4 << 10
	cfg.ScanGranularity = 4 << 10
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}

	hdd := sim.NewDevice(sim.Barracuda7200())
	ssd := sim.NewDevice(sim.IntelX25E())
	dataVol, err := storage.NewVolume(hdd, 0, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]uint64, 20)
	bodies := make([][]byte, 20)
	for i := range keys {
		keys[i] = uint64(i+1) * 10
		bodies[i] = []byte(fmt.Sprintf("base-%03d", keys[i]))
	}
	tbl, err := table.Load(dataVol, table.DefaultConfig(), keys, bodies)
	if err != nil {
		t.Fatal(err)
	}
	ssdVol, err := storage.NewVolume(ssd, 0, cfg.SSDCapacity*4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStore(cfg, tbl, ssdVol, &Oracle{}, nil, wholeVolume(ssdVol), nil)
	if err != nil {
		t.Fatal(err)
	}

	var now sim.Time
	// The marker updates this scan must observe: inserts of keys absent
	// from the base table, committed before the query starts. Several are
	// needed because query setup primes the merge heap with the first
	// memtable record — only the later ones stay exposed to the
	// flush-then-merge interleaving.
	markers := []uint64{51, 52, 53, 54, 55}
	for _, mk := range markers {
		now, err = s.ApplyAuto(now, update.Record{Key: mk, Op: update.Insert, Payload: []byte("marker-row")})
		if err != nil {
			t.Fatal(err)
		}
	}

	// Query starts while the marker is still only in the memtable.
	q, err := s.NewQuery(now, 0, 1000, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Flush the buffer (drains the marker into run F1), then pile up more
	// runs of post-query updates until the run count exceeds QueryPages.
	for i := 0; i < 6; i++ {
		key := uint64(500 + i)
		now, err = s.ApplyAuto(now, update.Record{Key: key, Op: update.Insert, Payload: []byte("post-query")})
		if err != nil {
			t.Fatal(err)
		}
		now, err = s.Flush(now)
		if err != nil {
			t.Fatal(err)
		}
	}
	if got, want := s.Runs(), cfg.QueryPages(); got <= want {
		t.Fatalf("setup failed to exceed query pages: %d runs <= %d", got, want)
	}

	// A second query's setup merges the earliest runs — including F1, the
	// run holding the marker — into a fresh, higher-ID run.
	q2, err := s.NewQuery(now, 0, 1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	q2.Close()
	if got, want := s.Runs(), cfg.QueryPages(); got > want {
		t.Fatalf("query setup did not merge: %d runs > %d", got, want)
	}

	// Drive the first query to completion: it must still see every marker.
	seen := make(map[uint64]bool)
	rows, err := collectRows(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if string(r.body) == "marker-row" {
			seen[r.key] = true
		}
		if r.key >= 500 {
			t.Fatalf("scan leaked post-query update for key %d", r.key)
		}
	}
	q.Close()
	for _, mk := range markers {
		if !seen[mk] {
			t.Fatalf("scan lost pre-query marker %d after its flush run was merged away", mk)
		}
	}
}

// TestScanSurvivesFlushBeyondMergeBatch is a regression from the batched
// in-place Mem_scan: with more pre-query buffered records than one
// merge-source batch (128), the merger held only the first batch when the
// flush landed, and an earlier version dropped every record past it. The
// scan must deliver all of them.
func TestScanSurvivesFlushBeyondMergeBatch(t *testing.T) {
	cfg := DefaultConfig(1 << 20)
	cfg.SSDPage = 4 << 10
	cfg.Run.IOSize = 16 << 10
	cfg.Run.IndexGranularity = 4 << 10
	cfg.ScanGranularity = 4 << 10
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	hdd := sim.NewDevice(sim.Barracuda7200())
	ssd := sim.NewDevice(sim.IntelX25E())
	dataVol, err := storage.NewVolume(hdd, 0, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := table.Load(dataVol, table.DefaultConfig(), []uint64{10}, [][]byte{[]byte("base")})
	if err != nil {
		t.Fatal(err)
	}
	ssdVol, err := storage.NewVolume(ssd, 0, cfg.SSDCapacity*4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStore(cfg, tbl, ssdVol, &Oracle{}, nil, wholeVolume(ssdVol), nil)
	if err != nil {
		t.Fatal(err)
	}

	// Far more markers than one merge batch, all committed before the
	// query starts and small enough that query setup does not flush.
	const markers = 300
	var now sim.Time
	for i := 0; i < markers; i++ {
		now, err = s.ApplyAuto(now, update.Record{
			Key: uint64(100 + i), Op: update.Insert, Payload: []byte("marker-row"),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	q, err := s.NewQuery(now, 0, ^uint64(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Flush lands while the query holds only its first merge batch.
	if now, err = s.Flush(now); err != nil {
		t.Fatal(err)
	}
	got := 0
	if err := q.Each(func(_ uint64, body []byte) bool {
		if string(body) == "marker-row" {
			got++
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	q.Close()
	if got != markers {
		t.Fatalf("scan interrupted by a flush delivered %d of %d markers", got, markers)
	}
}

// TestFailedFlushRestoresBufferAndScans: when the SSD extent allocator is
// exhausted (migration held off), a failed flush must not lose the
// acknowledged records it had already drained — they return to the
// buffer, later scans still see them, and a scan open across the failed
// flush delivers them too instead of silently truncating.
func TestFailedFlushRestoresBufferAndScans(t *testing.T) {
	cfg := DefaultConfig(256 << 10)
	cfg.SSDPage = 4 << 10
	cfg.Run.IOSize = 16 << 10
	cfg.Run.IndexGranularity = 4 << 10
	cfg.ScanGranularity = 4 << 10
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	hdd := sim.NewDevice(sim.Barracuda7200())
	ssd := sim.NewDevice(sim.IntelX25E())
	dataVol, err := storage.NewVolume(hdd, 0, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := table.Load(dataVol, table.DefaultConfig(), []uint64{10, 20}, [][]byte{[]byte("a"), []byte("b")})
	if err != nil {
		t.Fatal(err)
	}
	// Volume exactly the cache size: no over-provisioning, so flushes
	// exhaust the allocator quickly.
	ssdVol, err := storage.NewVolume(ssd, 0, cfg.SSDCapacity)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStore(cfg, tbl, ssdVol, &Oracle{}, nil, wholeVolume(ssdVol), nil)
	if err != nil {
		t.Fatal(err)
	}

	var now sim.Time
	acked := make(map[uint64]bool)
	key := uint64(1000)
	// Fill the allocator with runs until a flush fails.
	flushFailed := false
	payload := make([]byte, 1<<10)
	for i := 0; i < 10000 && !flushFailed; i++ {
		key++
		end, err := s.ApplyAuto(now, update.Record{Key: key, Op: update.Insert, Payload: payload})
		if err != nil {
			// The apply's internal buffer-full flush hit the exhausted
			// allocator; the rejected record was never acknowledged.
			flushFailed = true
			key--
			break
		}
		now = end
		acked[key] = true
		if i%10 == 9 {
			if end, err = s.Flush(now); err != nil {
				flushFailed = true
			} else {
				now = end
			}
		}
	}
	if !flushFailed {
		t.Fatal("setup never exhausted the extent allocator")
	}

	// Every acknowledged record must still be visible to a fresh scan.
	q, err := s.NewQuery(now, 0, ^uint64(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]bool)
	if err := q.Each(func(key uint64, _ []byte) bool { seen[key] = true; return true }); err != nil {
		t.Fatal(err)
	}
	q.Close()
	for k := range acked {
		if !seen[k] {
			t.Fatalf("acknowledged record %d lost after failed flush", k)
		}
	}

	// In-flight variant: a query open across a failing flush.
	for i := 0; i < 3; i++ {
		key++
		now2, err := s.ApplyAuto(now, update.Record{Key: key, Op: update.Insert, Payload: []byte("late-marker")})
		if err != nil {
			t.Fatal(err)
		}
		now = now2
		acked[key] = true
	}
	q2, err := s.NewQuery(now, 0, ^uint64(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Flush(now); err == nil {
		t.Fatal("expected the flush to fail with an exhausted allocator")
	}
	seen2 := make(map[uint64]bool)
	if err := q2.Each(func(key uint64, _ []byte) bool { seen2[key] = true; return true }); err != nil {
		t.Fatal(err)
	}
	q2.Close()
	for k := range acked {
		if !seen2[k] {
			t.Fatalf("record %d missing from scan interrupted by a failed flush", k)
		}
	}
}
