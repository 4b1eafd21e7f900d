package extsort

import (
	"math/rand"
	"sort"
	"testing"

	"masm/internal/update"
)

// allocRuns builds k sorted in-memory runs with distinct keys (so a
// Combiner never calls update.Merge, which legitimately allocates when it
// collapses records).
func allocRuns(k, per int) [][]update.Record {
	rng := rand.New(rand.NewSource(42))
	key := uint64(0)
	runs := make([][]update.Record, k)
	for i := range runs {
		recs := make([]update.Record, per)
		for j := range recs {
			key += uint64(rng.Intn(5)) + 1
			recs[j] = update.Record{TS: int64(key), Key: key, Op: update.Delete}
		}
		sort.Slice(recs, func(a, b int) bool { return update.Less(&recs[a], &recs[b]) })
		runs[i] = recs
	}
	return runs
}

// TestMergerNextZeroAllocs gates the hot path: once built, the loser tree
// must not allocate per record. The sources are in-memory so the gate
// measures the merge engine itself, not I/O buffering.
func TestMergerNextZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is meaningless under the race detector")
	}
	m, err := NewMerger(sliceIters(allocRuns(8, 1<<14))...)
	if err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(10000, func() {
		if _, ok, err := m.Next(); err != nil || !ok {
			t.Fatal("merger drained during alloc gate")
		}
	})
	if avg != 0 {
		t.Fatalf("Merger.Next allocates %.2f per record in steady state, want 0", avg)
	}
}

// TestMergerNextBatchZeroAllocs gates the batched path the same way.
func TestMergerNextBatchZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is meaningless under the race detector")
	}
	m, err := NewMerger(sliceIters(allocRuns(8, 1<<15))...)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]update.Record, 64)
	avg := testing.AllocsPerRun(1000, func() {
		if n, err := m.NextBatch(dst); err != nil || n == 0 {
			t.Fatal("merger drained during alloc gate")
		}
	})
	if avg != 0 {
		t.Fatalf("Merger.NextBatch allocates %.2f per batch in steady state, want 0", avg)
	}
}

// TestCombinerZeroAllocs gates both Combiner paths on a non-collapsing
// stream (distinct keys; collapsing calls update.Merge, which allocates
// by design).
func TestCombinerZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is meaningless under the race detector")
	}
	m, err := NewMerger(sliceIters(allocRuns(4, 1<<14))...)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCombiner(m, MergeAll)
	avg := testing.AllocsPerRun(10000, func() {
		if _, ok, err := c.Next(); err != nil || !ok {
			t.Fatal("combiner drained during alloc gate")
		}
	})
	if avg != 0 {
		t.Fatalf("Combiner.Next allocates %.2f per record in steady state, want 0", avg)
	}

	m2, err := NewMerger(sliceIters(allocRuns(4, 1<<15))...)
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewCombiner(m2, MergeAll)
	dst := make([]update.Record, 64)
	if _, err := c2.NextBatch(dst); err != nil { // warm up: lazily allocates the input window
		t.Fatal(err)
	}
	avg = testing.AllocsPerRun(1000, func() {
		if n, err := c2.NextBatch(dst); err != nil || n == 0 {
			t.Fatal("combiner drained during alloc gate")
		}
	})
	if avg != 0 {
		t.Fatalf("Combiner.NextBatch allocates %.2f per batch in steady state, want 0", avg)
	}
}

// TestMergerReleaseReusesBatches: a released merger's source batches
// serve the next NewMerger, so building a merge over already-sized
// sources allocates nothing.
func TestMergerReleaseReusesBatches(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is meaningless under the race detector")
	}
	its := make([]update.Iterator, 8)
	for i := range its {
		its[i] = update.NewSliceIterator(nil)
	}
	avg := testing.AllocsPerRun(100, func() {
		m, err := NewMerger(its...)
		if err != nil {
			t.Fatal(err)
		}
		m.Release()
	})
	if avg != 0 {
		t.Fatalf("NewMerger after Release allocates %.2f, want 0", avg)
	}
}
