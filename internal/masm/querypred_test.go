package masm

import (
	"bytes"
	"testing"

	"masm/internal/update"
)

// kv is one collected row.
type kv struct {
	key  uint64
	body []byte
}

func drainQueryRows(t *testing.T, q *Query) []kv {
	t.Helper()
	out, err := collectRows(q)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// collectRows drains q's remaining rows, bodies copied.
func collectRows(q *Query) ([]kv, error) {
	var out []kv
	_, err := take(q, -1, func(key uint64, body []byte) {
		out = append(out, kv{key: key, body: append([]byte(nil), body...)})
	})
	return out, err
}

// take hands fn at most n more rows of q (every remaining row if n < 0),
// by a call to Each that fn's n-th row stops, and reports whether q ran
// out first. It lets a test interleave a query's rows with other work.
func take(q *Query, n int, fn func(key uint64, body []byte)) (ended bool, err error) {
	if n == 0 {
		return false, nil
	}
	stopped := false
	err = q.Each(func(key uint64, body []byte) bool {
		fn(key, body)
		n--
		stopped = n == 0
		return !stopped
	})
	return !stopped && err == nil, err
}

// TestQueryPredDifferential is the store-level pushdown oracle: a
// predicated query must return byte-identical rows to an unpredicated
// query at the SAME timestamp (both read at one snapshot) followed by a
// linear predicate filter — across random update mixes (flushes, merges,
// migrations included), random scan bounds, and random multi-range
// predicates.
func TestQueryPredDifferential(t *testing.T) {
	e := newEnv(t, 3000, smallConfig())
	e.applyRandom(2500)
	maxKey := uint64(2 * (len(e.model) + 20))
	for probe := 0; probe < 30; probe++ {
		begin := uint64(e.rng.Int63n(int64(maxKey)))
		end := begin + uint64(e.rng.Int63n(int64(maxKey)))
		var ranges []update.KeyRange
		for i := 0; i < 1+e.rng.Intn(4); i++ {
			lo := uint64(e.rng.Int63n(int64(maxKey)))
			ranges = append(ranges, update.KeyRange{Lo: lo, Hi: lo + uint64(e.rng.Int63n(400))})
		}
		pred := update.NewPred(ranges)
		sn := e.store.Snapshot()

		naive, err := sn.NewQuery(e.now, begin, end, nil)
		if err != nil {
			t.Fatal(err)
		}
		var want []kv
		for _, r := range drainQueryRows(t, naive) {
			if pred.Match(r.key) {
				want = append(want, r)
			}
		}
		naive.Close()

		pq, err := sn.NewQuery(e.now, begin, end, pred)
		if err != nil {
			t.Fatal(err)
		}
		got := drainQueryRows(t, pq)
		pq.Close()
		sn.Close()

		if len(got) != len(want) {
			t.Fatalf("probe %d (begin %d end %d ranges %d): %d rows, want %d",
				probe, begin, end, len(ranges), len(got), len(want))
		}
		for i := range got {
			if got[i].key != want[i].key || !bytes.Equal(got[i].body, want[i].body) {
				t.Fatalf("probe %d row %d: key %d vs %d", probe, i, got[i].key, want[i].key)
			}
		}
		// Interleave more updates so later probes see different run sets.
		e.applyRandom(100)
		maxKey = uint64(2 * (len(e.model) + 20))
	}
}

// TestQueryPredProjectionDifferential projects the rows of the
// predicated query and checks it against project-then-filter applied
// to the naive scan.
func TestQueryPredProjectionDifferential(t *testing.T) {
	e := newEnv(t, 1500, smallConfig())
	e.applyRandom(1200)
	pred := update.NewPred([]update.KeyRange{{Lo: 100, Hi: 600}, {Lo: 1500, Hi: 1700}})
	const off, width = 8, 16
	sn := e.store.Snapshot()
	defer sn.Close()

	naive, err := sn.NewQuery(e.now, 0, ^uint64(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	var want []kv
	for _, r := range drainQueryRows(t, naive) {
		if !pred.Match(r.key) {
			continue
		}
		col := []byte{}
		if off+width <= len(r.body) {
			col = r.body[off : off+width]
		}
		want = append(want, kv{key: r.key, body: col})
	}
	naive.Close()

	pq, err := sn.NewQuery(e.now, 0, ^uint64(0), pred)
	if err != nil {
		t.Fatal(err)
	}
	var got []kv
	if err := pq.Each(func(key uint64, body []byte) bool {
		col := []byte{}
		if off+width <= len(body) {
			col = body[off : off+width]
		}
		got = append(got, kv{key: key, body: append([]byte(nil), col...)})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	pq.Close()

	if len(got) != len(want) {
		t.Fatalf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].key != want[i].key || !bytes.Equal(got[i].body, want[i].body) {
			t.Fatalf("row %d: key %d body %x, want key %d body %x",
				i, got[i].key, got[i].body, want[i].key, want[i].body)
		}
	}
}

// TestQueryPredPruningMetrics checks the pushdown observability contract:
// a selective predicate over a store with materialized runs must record
// skipped granules and filtered records, folded at query close.
func TestQueryPredPruningMetrics(t *testing.T) {
	e := newEnv(t, 2000, smallConfig())
	e.applyRandom(2000)
	skipped0 := e.store.m.GranulesSkipped.Value()
	filtered0 := e.store.m.PushdownFiltered.Value()

	pred := update.NewPred([]update.KeyRange{{Lo: 40, Hi: 60}})
	q, err := e.store.NewQuery(e.now, 0, ^uint64(0), pred)
	if err != nil {
		t.Fatal(err)
	}
	rows := drainQueryRows(t, q)
	q.Close()
	for _, r := range rows {
		if !pred.Match(r.key) {
			t.Fatalf("row %d escaped the predicate", r.key)
		}
	}
	if e.store.m.GranulesSkipped.Value() == skipped0 {
		t.Fatal("selective query skipped no granules")
	}
	if e.store.m.PushdownFiltered.Value() == filtered0 {
		t.Fatal("selective query filtered no records below the merge")
	}

	// An unpredicated query must leave both counters untouched.
	s1, f1 := e.store.m.GranulesSkipped.Value(), e.store.m.PushdownFiltered.Value()
	nq, err := e.store.NewQuery(e.now, 0, ^uint64(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	drainQueryRows(t, nq)
	nq.Close()
	if e.store.m.GranulesSkipped.Value() != s1 || e.store.m.PushdownFiltered.Value() != f1 {
		t.Fatal("unpredicated query touched pushdown counters")
	}
}
