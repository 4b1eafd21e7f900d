package memtable

import (
	"testing"

	"masm/internal/update"
)

func rec(ts int64, key uint64) update.Record {
	return update.Record{TS: ts, Key: key, Op: update.Insert, Payload: []byte("xxxxxxxx")}
}

func TestAppendAndCapacity(t *testing.T) {
	b := New(100)
	r := rec(1, 1)
	sz := update.EncodedSize(&r)
	n := 0
	for b.Append(rec(int64(n+1), uint64(n))) {
		n++
	}
	if n != 100/sz {
		t.Fatalf("accepted %d records, want %d", n, 100/sz)
	}
	if b.Bytes() != n*sz {
		t.Fatalf("bytes = %d, want %d", b.Bytes(), n*sz)
	}
	b.SetCapacity(100 + sz)
	if !b.Append(rec(99, 99)) {
		t.Fatal("append after capacity grow failed")
	}
}

func TestDrainSortsAndEmpties(t *testing.T) {
	b := New(1 << 20)
	keys := []uint64{5, 1, 9, 3, 3}
	for i, k := range keys {
		b.Append(rec(int64(i+1), k))
	}
	out := b.Drain(MaxDrain)
	if len(out) != 5 {
		t.Fatalf("drained %d, want 5", len(out))
	}
	for i := 1; i < len(out); i++ {
		if update.Less(&out[i], &out[i-1]) {
			t.Fatalf("drain not sorted at %d", i)
		}
	}
	if len(b.recs) != 0 || b.Bytes() != 0 {
		t.Fatal("buffer not empty after full drain")
	}
}

func TestDrainBeforeTS(t *testing.T) {
	b := New(1 << 20)
	for i := 1; i <= 10; i++ {
		b.Append(rec(int64(i), uint64(i)))
	}
	out := b.Drain(6)
	if len(out) != 5 {
		t.Fatalf("drained %d, want 5 (ts 1..5)", len(out))
	}
	if len(b.recs) != 5 {
		t.Fatalf("%d left, want 5", len(b.recs))
	}
}

func TestScanVisibilityFilter(t *testing.T) {
	b := New(1 << 20)
	for i := 1; i <= 10; i++ {
		b.Append(rec(int64(i), uint64(i)))
	}
	got, _ := b.AppendRange(nil, 0, ^uint64(0), 6, nil) // query ts 6 sees ts 1..5
	for _, r := range got {
		if r.TS >= 6 {
			t.Fatalf("saw invisible record ts=%d", r.TS)
		}
	}
	if len(got) != 5 {
		t.Fatalf("scan saw %d records, want 5", len(got))
	}
}

func TestScanRangeFilter(t *testing.T) {
	b := New(1 << 20)
	for i := 1; i <= 100; i++ {
		b.Append(rec(int64(i), uint64(i*3)))
	}
	got, _ := b.AppendRange(nil, 30, 60, 1000, nil)
	for _, r := range got {
		if r.Key < 30 || r.Key > 60 {
			t.Fatalf("key %d outside [30,60]", r.Key)
		}
	}
	if len(got) != 11 { // 30,33,...,60
		t.Fatalf("scan saw %d, want 11", len(got))
	}
}

// TestAppendRangePredFilter: the predicate drops keys below the copy and
// counts only the in-range, visible records it dropped.
func TestAppendRangePredFilter(t *testing.T) {
	b := New(1 << 20)
	for i := 1; i <= 100; i++ {
		b.Append(rec(int64(i), uint64(i)))
	}
	pred := update.NewPred([]update.KeyRange{{Lo: 10, Hi: 19}, {Lo: 40, Hi: 44}})
	got, filtered := b.AppendRange(nil, 15, 60, 51, pred) // keys 15..50 visible
	if len(got) != 5+5 || filtered != 36-10 {
		t.Fatalf("copied %d, filtered %d; want 10, 26", len(got), filtered)
	}
	for _, r := range got {
		if !pred.Match(r.Key) {
			t.Fatalf("key %d escaped the predicate", r.Key)
		}
	}
}

// TestAppendRangeCopyIsolated: a copy is the caller's — later appends,
// sorts (another reader's copy) and drains leave it exactly as taken.
func TestAppendRangeCopyIsolated(t *testing.T) {
	b := New(1 << 20)
	for i := 1; i <= 50; i++ {
		b.Append(rec(int64(i), uint64(51-i)))
	}
	got, _ := b.AppendRange(nil, 0, ^uint64(0), 51, nil)
	want := append([]update.Record(nil), got...)
	for i := 51; i <= 80; i++ {
		b.Append(rec(int64(i), uint64(i%25)))
	}
	b.AppendRange(nil, 0, ^uint64(0), 100, nil) // re-sorts the interleaved tail
	b.Drain(60)
	b.Restore([]update.Record{rec(7, 3)})
	b.Drain(MaxDrain)
	if len(got) != 50 {
		t.Fatalf("copy holds %d records, want 50", len(got))
	}
	for i := range got {
		if got[i].Key != want[i].Key || got[i].TS != want[i].TS {
			t.Fatalf("copy record %d changed: %+v, want %+v", i, got[i], want[i])
		}
		if i > 0 && update.Less(&got[i], &got[i-1]) {
			t.Fatalf("copy out of (key, ts) order at %d", i)
		}
	}
}

func TestScanEmptyBuffer(t *testing.T) {
	b := New(1024)
	if got, filtered := b.AppendRange(nil, 0, ^uint64(0), 100, nil); len(got) != 0 || filtered != 0 {
		t.Fatal("empty scan returned something")
	}
}

func TestDuplicateKeysOrderedByTS(t *testing.T) {
	b := New(1 << 20)
	b.Append(rec(3, 7))
	b.Append(rec(1, 7))
	b.Append(rec(2, 7))
	got, _ := b.AppendRange(nil, 7, 7, 100, nil)
	if len(got) != 3 {
		t.Fatalf("%d duplicates, want 3", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].TS <= got[i-1].TS {
			t.Fatalf("duplicates out of ts order: %d after %d", got[i].TS, got[i-1].TS)
		}
	}
}
