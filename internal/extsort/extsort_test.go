package extsort

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"masm/internal/update"
)

func iterOf(recs ...update.Record) update.Iterator {
	return update.NewSliceIterator(recs)
}

func collect(t *testing.T, it update.Iterator) []update.Record {
	t.Helper()
	var out []update.Record
	for {
		r, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, r)
	}
}

func TestMergerOrders(t *testing.T) {
	a := iterOf(
		update.Record{TS: 1, Key: 1, Op: update.Delete},
		update.Record{TS: 4, Key: 5, Op: update.Delete},
	)
	b := iterOf(
		update.Record{TS: 2, Key: 2, Op: update.Delete},
		update.Record{TS: 3, Key: 5, Op: update.Delete},
	)
	m, err := NewMerger(a, b)
	if err != nil {
		t.Fatal(err)
	}
	out := collect(t, m)
	if len(out) != 4 {
		t.Fatalf("merged %d, want 4", len(out))
	}
	for i := 1; i < len(out); i++ {
		if update.Less(&out[i], &out[i-1]) {
			t.Fatalf("out of order at %d: %+v after %+v", i, out[i], out[i-1])
		}
	}
	// Same key 5: ts 3 before ts 4.
	if out[2].TS != 3 || out[3].TS != 4 {
		t.Fatalf("same-key ts order broken: %d, %d", out[2].TS, out[3].TS)
	}
}

func TestMergerEmptyInputs(t *testing.T) {
	m, err := NewMerger(iterOf(), iterOf(), iterOf(update.Record{TS: 1, Key: 9, Op: update.Delete}))
	if err != nil {
		t.Fatal(err)
	}
	out := collect(t, m)
	if len(out) != 1 || out[0].Key != 9 {
		t.Fatalf("merge with empties = %+v", out)
	}
}

func TestMergerProperty(t *testing.T) {
	// Property: merging k random sorted streams yields the sorted multiset
	// union.
	f := func(seed int64, kRaw uint8) bool {
		k := int(kRaw%5) + 1
		rng := rand.New(rand.NewSource(seed))
		var all []update.Record
		its := make([]update.Iterator, k)
		ts := int64(1)
		for i := 0; i < k; i++ {
			n := rng.Intn(50)
			recs := make([]update.Record, n)
			for j := range recs {
				recs[j] = update.Record{TS: ts, Key: uint64(rng.Intn(100)), Op: update.Delete}
				ts++
			}
			sort.Slice(recs, func(a, b int) bool { return update.Less(&recs[a], &recs[b]) })
			all = append(all, recs...)
			its[i] = update.NewSliceIterator(recs)
		}
		sort.Slice(all, func(a, b int) bool { return update.Less(&all[a], &all[b]) })
		m, err := NewMerger(its...)
		if err != nil {
			return false
		}
		var got []update.Record
		for {
			r, ok, err := m.Next()
			if err != nil {
				return false
			}
			if !ok {
				break
			}
			got = append(got, r)
		}
		if len(got) != len(all) {
			return false
		}
		for i := range got {
			if got[i].Key != all[i].Key || got[i].TS != all[i].TS {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCombinerMergeAll(t *testing.T) {
	src := iterOf(
		update.Record{TS: 1, Key: 1, Op: update.Insert, Payload: []byte("a")},
		update.Record{TS: 2, Key: 1, Op: update.Delete},
		update.Record{TS: 3, Key: 1, Op: update.Insert, Payload: []byte("b")},
		update.Record{TS: 4, Key: 2, Op: update.Delete},
	)
	out := collect(t, NewCombiner(src, MergeAll))
	if len(out) != 2 {
		t.Fatalf("combined to %d records, want 2", len(out))
	}
	if out[0].Key != 1 || out[0].Op != update.Replace || string(out[0].Payload) != "b" {
		t.Fatalf("key 1 combined to %+v, want replace(b)", out[0])
	}
	if out[1].Key != 2 || out[1].Op != update.Delete {
		t.Fatalf("key 2 combined to %+v", out[1])
	}
}

func TestCombinerMergeNone(t *testing.T) {
	src := iterOf(
		update.Record{TS: 1, Key: 1, Op: update.Delete},
		update.Record{TS: 2, Key: 1, Op: update.Delete},
	)
	out := collect(t, NewCombiner(src, MergeNone))
	if len(out) != 2 {
		t.Fatalf("MergeNone collapsed records: %d", len(out))
	}
}

func TestCombinerQueryBarrier(t *testing.T) {
	// Active query at ts 2 forbids merging (1,2] with later, i.e. records
	// at ts 1 and ts 3 must stay separate, while 3 and 4 may merge.
	policy := func(older, newer int64) bool {
		qts := int64(2)
		return !(older < qts && qts <= newer)
	}
	src := iterOf(
		update.Record{TS: 1, Key: 1, Op: update.Insert, Payload: []byte("a")},
		update.Record{TS: 3, Key: 1, Op: update.Modify, Payload: update.EncodeFields([]update.Field{{Off: 0, Value: []byte("X")}})},
		update.Record{TS: 4, Key: 1, Op: update.Delete},
	)
	out := collect(t, NewCombiner(src, policy))
	if len(out) != 2 {
		t.Fatalf("barrier combine produced %d records, want 2", len(out))
	}
	if out[0].TS != 1 || out[1].TS != 4 {
		t.Fatalf("barrier combine timestamps = %d,%d want 1,4", out[0].TS, out[1].TS)
	}
	if out[1].Op != update.Delete {
		t.Fatalf("ts3+ts4 should merge to delete, got %v", out[1].Op)
	}
}

func TestCombinerEmpty(t *testing.T) {
	out := collect(t, NewCombiner(iterOf(), MergeAll))
	if len(out) != 0 {
		t.Fatalf("empty combine produced %d", len(out))
	}
}

// MergeNone never collapses; always safe.
func MergeNone(_, _ int64) bool { return false }
