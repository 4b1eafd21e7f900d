package memtable

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"masm/internal/update"
)

// TestQuickDrainIsSortedMultiset: draining returns exactly the appended
// records below the timestamp bound, in (key, ts) order, and leaves the
// rest intact.
func TestQuickDrainIsSortedMultiset(t *testing.T) {
	f := func(seed int64, nRaw uint16, boundRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%500) + 1
		b := New(1 << 20)
		var all []update.Record
		for i := 0; i < n; i++ {
			rec := update.Record{TS: int64(i + 1), Key: uint64(rng.Intn(50)), Op: update.Delete}
			if !b.Append(rec) {
				return false
			}
			all = append(all, rec)
		}
		bound := int64(boundRaw)%int64(n+2) + 1
		out := b.Drain(bound)
		var wantOut, wantRest []update.Record
		for _, r := range all {
			if r.TS < bound {
				wantOut = append(wantOut, r)
			} else {
				wantRest = append(wantRest, r)
			}
		}
		if len(out) != len(wantOut) || len(b.recs) != len(wantRest) {
			return false
		}
		sort.SliceStable(wantOut, func(i, j int) bool { return update.Less(&wantOut[i], &wantOut[j]) })
		for i := range out {
			if out[i].Key != wantOut[i].Key || out[i].TS != wantOut[i].TS {
				return false
			}
		}
		// The remainder drains next time, also sorted.
		rest := b.Drain(MaxDrain)
		if len(rest) != len(wantRest) {
			return false
		}
		for i := 1; i < len(rest); i++ {
			if update.Less(&rest[i], &rest[i-1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickScanMatchesFilter: a range copy holds exactly the records with
// key in range and ts below the query's, in (key, ts) order, regardless
// of append order.
func TestQuickScanMatchesFilter(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%400) + 1
		b := New(1 << 20)
		var all []update.Record
		for i := 0; i < n; i++ {
			rec := update.Record{TS: int64(i + 1), Key: uint64(rng.Intn(100)), Op: update.Delete}
			b.Append(rec)
			all = append(all, rec)
		}
		lo := uint64(rng.Intn(100))
		hi := lo + uint64(rng.Intn(50))
		qts := int64(rng.Intn(n + 2))
		want := 0
		for _, r := range all {
			if r.Key >= lo && r.Key <= hi && r.TS < qts {
				want++
			}
		}
		got, _ := b.AppendRange(nil, lo, hi, qts, nil)
		for i, r := range got {
			if r.Key < lo || r.Key > hi || r.TS >= qts {
				return false
			}
			if i > 0 && update.Less(&r, &got[i-1]) {
				return false
			}
		}
		return len(got) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
