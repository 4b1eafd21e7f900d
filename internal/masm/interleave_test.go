package masm

import (
	"bytes"
	"cmp"
	"errors"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"masm/internal/update"
)

// openReader is one query of an interleaving: the rows it has delivered so
// far and the rows the model held in its range at its timestamp.
type openReader struct {
	q         *Query
	got, want []kv
}

// TestInterleavedReadersMatchModel is the differential test for the
// reading side of the update buffer. Several queries stay open at once —
// plain, predicated, and opened from snapshots — and each advances a
// random number of rows between operations that change what the buffer
// and the run set hold: appends, flushes, query-setup two-pass merges,
// failed flushes (exhausted allocator → Restore), migration portions and
// whole migrations (begun when no older reader blocks them, run while
// newer queries read), and snapshot closes. Every query's full output
// must equal the model at its timestamp.
func TestInterleavedReadersMatchModel(t *testing.T) {
	f := func(seed int64) bool {
		interleave(t, seed, 150)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Fatal(err)
	}
}

func interleave(t *testing.T, seed int64, steps int) {
	e := newEnv(t, 1500, smallConfig())
	e.rng = rand.New(rand.NewSource(seed))
	rng := rand.New(rand.NewSource(^seed))
	s := e.store
	// setFull exhausts the SSD cache on demand: re-registering the store's
	// partition with its cap at the bytes it already holds refuses every
	// Alloc, and the whole volume's cap lifts the refusal again.
	pool, id := s.alloc.sa, s.TableID()
	setFull := func(full bool) {
		limit := s.ssd.Size()
		if full {
			limit = pool.Used(id)
		}
		pool.Partition(id, limit)
	}

	type snap struct {
		sn    *Snapshot
		model map[uint64][]byte
	}
	var readers []*openReader
	var snaps []snap
	var mig *Migration

	open := func(sn *Snapshot, model map[uint64][]byte) {
		begin := uint64(rng.Intn(4000))
		end := begin + uint64(rng.Intn(4000))
		var pred *update.Pred
		if rng.Intn(2) == 0 {
			lo := uint64(rng.Intn(4000))
			pred = update.NewPred([]update.KeyRange{{Lo: lo, Hi: lo + uint64(rng.Intn(800))}, {Lo: 50, Hi: 90}})
		}
		var q *Query
		var err error
		if sn != nil {
			q, err = sn.NewQuery(e.now, begin, end, pred)
		} else {
			q, err = s.NewQuery(e.now, begin, end, pred)
		}
		if err != nil {
			t.Fatal(err)
		}
		r := &openReader{q: q}
		for k, v := range model {
			if k >= begin && k <= end && (pred == nil || pred.Match(k)) {
				r.want = append(r.want, kv{key: k, body: v})
			}
		}
		slices.SortFunc(r.want, func(a, b kv) int { return cmp.Compare(a.key, b.key) })
		readers = append(readers, r)
	}
	// advance delivers up to n rows of r (all of them if n < 0) and, at the
	// end of its stream, checks and closes it.
	advance := func(r *openReader, n int) (done bool) {
		ended, err := take(r.q, n, func(key uint64, body []byte) {
			r.got = append(r.got, kv{key: key, body: append([]byte(nil), body...)})
		})
		if err != nil {
			t.Fatal(err)
		}
		if !ended {
			return false
		}
		r.q.Close()
		if len(r.got) != len(r.want) {
			t.Fatalf("seed %d: query at ts %d delivered %d rows, want %d", seed, r.q.ts, len(r.got), len(r.want))
		}
		for i := range r.got {
			if r.got[i].key != r.want[i].key || !bytes.Equal(r.got[i].body, r.want[i].body) {
				t.Fatalf("seed %d: query at ts %d row %d: key %d body %.8x, want key %d body %.8x",
					seed, r.q.ts, i, r.got[i].key, r.got[i].body, r.want[i].key, r.want[i].body)
			}
		}
		return true
	}
	flush := func() {
		end, err := s.Flush(e.now)
		if err != nil {
			t.Fatal(err)
		}
		e.now = end
	}

	for step := 0; step < steps; step++ {
		readers = slices.DeleteFunc(readers, func(r *openReader) bool { return advance(r, rng.Intn(40)) })
		switch op := rng.Intn(12); op {
		case 0, 1:
			e.applyRandom(1 + rng.Intn(60))
		case 2:
			flush()
		case 3:
			open(nil, e.model)
		case 4:
			snaps = append(snaps, snap{s.Snapshot(), maps.Clone(e.model)})
		case 5:
			if len(snaps) > 0 {
				sp := snaps[rng.Intn(len(snaps))]
				open(sp.sn, sp.model)
			}
		case 6:
			if len(snaps) > 0 {
				i := rng.Intn(len(snaps))
				snaps[i].sn.Close()
				snaps = slices.Delete(snaps, i, i+1)
			}
		case 7:
			// More runs than query pages: the next setup merges (unless a
			// migration is in flight).
			for s.Runs() <= s.cfg.QueryPages() {
				e.applyRandom(10)
				flush()
			}
			open(nil, e.model)
		case 8:
			// A failed flush restores its records; a setup against the full
			// cache proceeds on the unflushed buffer.
			e.applyRandom(1 + rng.Intn(20))
			setFull(true)
			if _, err := s.Flush(e.now); err == nil {
				t.Fatal("flush succeeded against a full allocator")
			}
			if rng.Intn(2) == 0 {
				open(nil, e.model)
			}
			setFull(false)
		case 9, 10:
			if mig != nil {
				end, _, err := mig.Run()
				if err != nil {
					t.Fatal(err)
				}
				e.now, mig = end, nil
				break
			}
			pages := 0 // whole table, sometimes carrying the buffer from memory
			if op == 10 {
				pages = 1 + rng.Intn(20)
			} else {
				setFull(rng.Intn(3) == 0)
			}
			m, err := s.BeginMigration(e.now, pages)
			setFull(false)
			if errors.Is(err, ErrActiveQueries) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			mig, e.now = m, m.at
		case 11:
			// Let every reader finish so a migration can begin.
			for _, r := range readers {
				advance(r, -1)
			}
			readers = readers[:0]
			for _, sp := range snaps {
				sp.sn.Close()
			}
			snaps = snaps[:0]
		}
	}
	for _, r := range readers {
		advance(r, -1)
	}
	for _, sp := range snaps {
		sp.sn.Close()
	}
	if mig != nil {
		if _, _, err := mig.Run(); err != nil {
			t.Fatal(err)
		}
	}
	e.verifyRange(0, ^uint64(0))
	if !s.Idle() {
		t.Fatal("store not idle after every reader closed")
	}
	if _, err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckMetrics(); err != nil {
		t.Fatal(err)
	}
	if len(s.dead) != 0 || len(s.pins) != 0 {
		t.Fatalf("%d dead runs, %d pinned runs after every reader closed", len(s.dead), len(s.pins))
	}
}
