package memtable

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
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

// TestQuickTailSortMatchesStableSort: sorting only the tail appended
// since the last sort and merging it into the prefix orders the buffer
// exactly as a stable sort of the whole buffer does, ties included, also
// when a failed flush restored records into the tail.
func TestQuickTailSortMatchesStableSort(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := New(1 << 20)
		var all []update.Record
		id := 0
		// add appends n records with few distinct keys and timestamps, so
		// (key, ts) ties are common; the payload names each record.
		add := func(n int, restore bool) {
			var recs []update.Record
			for i := 0; i < n; i++ {
				id++
				recs = append(recs, update.Record{TS: int64(rng.Intn(8)), Key: uint64(rng.Intn(12)),
					Op: update.Insert, Payload: []byte{byte(id), byte(id >> 8)}})
			}
			if restore {
				b.Restore(recs)
			} else {
				for _, r := range recs {
					b.Append(r)
				}
			}
			all = append(all, recs...)
		}
		for round := rng.Intn(6); round >= 0; round-- {
			add(rng.Intn(40), rng.Intn(3) == 0)
			if rng.Intn(2) == 0 {
				b.AppendRange(nil, 0, ^uint64(0), 1<<62, nil)
				want := append([]update.Record(nil), all...)
				sort.SliceStable(want, func(i, j int) bool { return update.Less(&want[i], &want[j]) })
				if len(b.recs) != len(want) {
					return false
				}
				for i := range want {
					if !bytes.Equal(b.recs[i].Payload, want[i].Payload) {
						return false
					}
				}
				all = want
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkAppendRangeAfterAppend is the scan setup that follows a write:
// a buffer of 2,300 records (four 64 KiB pages of ~110-byte updates) with
// a tail of 20 new records to sort in. Each iteration copies the range
// out once.
func BenchmarkAppendRangeAfterAppend(b *testing.B) {
	const held, tail = 2300, 20
	rng := rand.New(rand.NewSource(1))
	buf := New(1 << 30)
	ts := int64(0)
	add := func() {
		ts++
		buf.Append(update.Record{TS: ts, Key: uint64(rng.Int63n(1 << 40)), Op: update.Insert, Payload: make([]byte, 92)})
	}
	for i := 0; i < held; i++ {
		add()
	}
	dst := make([]update.Record, 0, held+tail)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// Keep the buffer at held+tail records: drop the oldest tail's worth
		// and append a fresh unsorted tail.
		buf.Drain(ts - held + tail + 1)
		for j := 0; j < tail; j++ {
			add()
		}
		b.StartTimer()
		dst, _ = buf.AppendRange(dst[:0], 0, ^uint64(0), 1<<62, nil)
	}
}

// TestQuickAppendKeyMatchesModel interleaves Append, AppendKey,
// AppendRange, Drain(beforeTS) and Restore. Every point probe must return
// exactly the key's records below its timestamp — compared, once stably
// sorted by timestamp, with the same records of a plain append-order
// model — and must leave the unsorted tail at most √ of the sorted
// prefix.
func TestQuickAppendKeyMatchesModel(t *testing.T) {
	byTS := func(recs []update.Record) {
		sort.SliceStable(recs, func(i, j int) bool { return recs[i].TS < recs[j].TS })
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := New(1 << 30)
		var model, drained []update.Record
		id := 0
		probes, sorts := 0, 0
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(20); {
			case op < 12: // a burst of appends; few keys and timestamps, so ties are common
				for n := rng.Intn(25); n >= 0; n-- {
					id++
					r := update.Record{TS: int64(rng.Intn(60)), Key: uint64(rng.Intn(16)),
						Op: update.Insert, Payload: []byte{byte(id), byte(id >> 8)}}
					b.Append(r)
					model = append(model, r)
				}
			case op < 17:
				key, qts := uint64(rng.Intn(16)), int64(rng.Intn(64))
				sorted := b.sorted
				got := b.AppendKey(nil, key, qts)
				if b.sorted != sorted {
					sorts++
				}
				var want []update.Record
				for _, r := range model {
					if r.Key == key && r.TS < qts {
						want = append(want, r)
					}
				}
				byTS(got)
				byTS(want)
				if len(got) != len(want) {
					t.Logf("seed %d step %d: AppendKey(%d, %d) = %d records, want %d", seed, step, key, qts, len(got), len(want))
					return false
				}
				for i := range want {
					if !bytes.Equal(got[i].Payload, want[i].Payload) {
						t.Logf("seed %d step %d: AppendKey(%d, %d)[%d] is record %x, want %x", seed, step, key, qts, i, got[i].Payload, want[i].Payload)
						return false
					}
				}
				if tail := len(b.recs) - b.sorted; tail*tail > b.sorted {
					t.Logf("seed %d step %d: tail %d after a probe over a sorted prefix of %d", seed, step, tail, b.sorted)
					return false
				}
				probes++
			case op < 18:
				b.AppendRange(nil, 0, ^uint64(0), 1<<62, nil)
			case op < 19:
				bound := int64(rng.Intn(64))
				drained = b.Drain(bound)
				model = slices.DeleteFunc(model, func(r update.Record) bool { return r.TS < bound })
			default: // a failed flush puts the last drain back, as an unsorted tail
				b.Restore(drained)
				model = append(model, drained...)
				drained = nil
			}
		}
		return probes > 0 && sorts > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkAppendKeyInterleaved is a point read's memtable probe between
// writes: a buffer of 4,000–8,000 records (the oldest half drains, as a
// flush would, whenever it reaches 8,000) and one append per probe or
// one per 20 probes. Nothing else sorts the buffer, as when no range scan
// runs. An op is one probe and its share of the appends.
func BenchmarkAppendKeyInterleaved(b *testing.B) {
	for _, every := range []int{1, 20} {
		b.Run(fmt.Sprintf("1:%d", every), func(b *testing.B) {
			const low, high = 4000, 8000
			rng := rand.New(rand.NewSource(1))
			buf := New(1 << 30)
			ts, held := int64(0), 0
			add := func() {
				ts++
				held++
				buf.Append(update.Record{TS: ts, Key: uint64(rng.Intn(1 << 14)), Op: update.Insert, Payload: make([]byte, 92)})
			}
			for held < low {
				add()
			}
			dst := make([]update.Record, 0, 16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%every == 0 {
					if held == high {
						b.StopTimer()
						buf.Drain(ts - low + 1)
						held = low
						b.StartTimer()
					}
					add()
				}
				dst = buf.AppendKey(dst[:0], uint64(rng.Intn(1<<14)), ts+1)
			}
		})
	}
}
