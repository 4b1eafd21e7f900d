package masm

import (
	"bytes"
	"maps"
	"math/rand"
	"sync"
	"testing"

	"masm/internal/sim"
	"masm/internal/update"
)

// TestOpenSnapshotParksNoRetiredRuns: an open snapshot holds no runs, so
// the runs a query-setup merge consumes while it is open are freed at
// once rather than parked in the dead set with their extents charged to
// the allocator until the snapshot closes. The snapshot still reads its
// own view: its queries pin the run set current when they open.
func TestOpenSnapshotParksNoRetiredRuns(t *testing.T) {
	e := newEnv(t, 3000, smallConfig())
	for i := 0; i < 40; i++ {
		e.applyRandom(40)
		if _, err := e.store.Flush(e.now); err != nil {
			t.Fatal(err)
		}
	}
	if e.store.Runs() <= e.store.Config().QueryPages() {
		t.Fatalf("only %d runs, need > %d query pages to force a merge", e.store.Runs(), e.store.Config().QueryPages())
	}
	sn := e.store.Snapshot()
	defer sn.Close()
	atSnap := maps.Clone(e.model)
	e.applyRandom(200)
	e.verifyRange(0, ^uint64(0)) // query setup merges runs the snapshot saw

	s := e.store
	s.mu.Lock()
	dead, live := len(s.dead), int64(0)
	for _, r := range s.runs {
		live += s.extents[r.ID].size
	}
	used := s.ssd.Size() - s.alloc.sa.pool.totalFree()
	s.mu.Unlock()
	if s.Stats().TwoPassMerges == 0 {
		t.Fatal("query setup merged nothing")
	}
	if dead != 0 || used != live {
		t.Fatalf("snapshot open: %d runs parked, allocator holds %d bytes for %d bytes of live extents", dead, used, live)
	}

	q, err := sn.NewQuery(e.now, 0, ^uint64(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	e.verifyQuery(q, 0, ^uint64(0), atSnap)
}

// TestConcurrentReadersSeeOneView: snapshots, their range scans (plain and
// predicated) and one-key scans register, copy the buffer and unregister
// from several goroutines while a writer appends and flushes. Every read
// at one snapshot agrees; once all are done the store holds no reader, no
// pin and no parked run.
func TestConcurrentReadersSeeOneView(t *testing.T) {
	e := newEnv(t, 1000, smallConfig())
	s := e.store
	read := func(sn *Snapshot, begin, end uint64, pred *update.Pred) ([]kv, error) {
		q, err := sn.NewQuery(0, begin, end, pred)
		if err != nil {
			return nil, err
		}
		defer q.Close()
		return collectRows(q)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		var at sim.Time
		var err error
		for i := 0; i < 3000; i++ {
			key := uint64(rng.Intn(2500)) + 1
			if at, err = s.ApplyAuto(at, update.Record{Key: key, Op: update.Insert, Payload: body(key+uint64(i), 92)}); err != nil {
				t.Error(err)
				return
			}
			if i%500 == 499 {
				if at, err = s.Flush(at); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(10 + g)))
			for i := 0; i < 40; i++ {
				begin := uint64(rng.Intn(2000))
				end := begin + uint64(rng.Intn(600))
				sn := s.Snapshot()
				plain, err := read(sn, begin, end, nil)
				if err != nil {
					t.Error(err)
					return
				}
				pred := update.NewPred([]update.KeyRange{{Lo: begin + 100, Hi: end}})
				predicated, err := read(sn, begin, end, pred)
				if err != nil {
					t.Error(err)
					return
				}
				j := 0
				for _, r := range plain {
					if !pred.Match(r.key) {
						continue
					}
					if j == len(predicated) || predicated[j].key != r.key || !bytes.Equal(predicated[j].body, r.body) {
						t.Errorf("snapshot %d: predicated scan disagrees with plain scan at key %d", sn.TS(), r.key)
						return
					}
					j++
				}
				if j != len(predicated) {
					t.Errorf("snapshot %d: predicated scan returned %d rows, plain scan's filter %d", sn.TS(), len(predicated), j)
					return
				}
				for k := 0; k < 5 && len(plain) > 0; k++ {
					r := plain[rng.Intn(len(plain))]
					one, err := read(sn, r.key, r.key, nil)
					if err != nil || len(one) != 1 || !bytes.Equal(one[0].body, r.body) {
						t.Errorf("snapshot %d: one-key scan of %d = %d rows, %v; range scan saw the row", sn.TS(), r.key, len(one), err)
						return
					}
				}
				sn.Close()
			}
		}()
	}
	wg.Wait()
	if !s.Idle() || len(s.pins) != 0 || len(s.dead) != 0 {
		t.Fatalf("after every reader closed: idle %v, %d pinned runs, %d parked runs", s.Idle(), len(s.pins), len(s.dead))
	}
	if _, err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckMetrics(); err != nil {
		t.Fatal(err)
	}
}

// Idle reports whether the store has no open queries, snapshots, lookups
// or in-flight migration — the precondition for dropping its table from a
// catalog.
func (s *Store) Idle() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.idleLocked()
}
