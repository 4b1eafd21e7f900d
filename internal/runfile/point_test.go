package runfile

import (
	"testing"

	"masm/internal/update"
)

// checkPointLookups holds a run's point-lookup path to the records it was
// written from: the filter admits every key that was appended (a Bloom
// filter may err only the other way), Lookup returns exactly that key's
// records below the query timestamp, in order, and finds nothing under
// keys that were never written. readable is false for a run whose volume
// is gone (the filter is memory-only and must still answer).
func checkPointLookups(t *testing.T, r *Run, recs []update.Record, readable bool) {
	t.Helper()
	const allTS = int64(1) << 62
	byKey := make(map[uint64][]update.Record)
	var cutTS int64
	for _, rec := range recs {
		byKey[rec.Key] = append(byKey[rec.Key], rec)
		cutTS = max(cutTS, rec.TS/2+1)
	}
	if got, want := r.FilterBytes(), FilterBytesFor(int64(len(recs))); got != want {
		t.Fatalf("filter of %d bytes for %d records, want %d", got, len(recs), want)
	}
	var p PointBuf
	for key, chain := range byKey {
		if !r.Admits(key, KeyHash(key), allTS) {
			t.Fatalf("false negative: the filter rejects key %d, which was appended", key)
		}
		if !readable {
			continue
		}
		for _, qts := range []int64{allTS, cutTS} {
			var want []update.Record
			for _, rec := range chain {
				if rec.TS < qts {
					want = append(want, rec)
				}
			}
			p.Reset()
			if _, err := r.Lookup(0, key, qts, r.cfg.IndexGranularity, &p); err != nil {
				t.Fatal(err)
			}
			if !sameRecords(p.Recs, want) {
				t.Fatalf("Lookup(%d) below ts %d: %d records, want %d", key, qts, len(p.Recs), len(want))
			}
		}
	}
	if !readable {
		return
	}
	for key := uint64(0); key < 50; key++ {
		if _, written := byKey[key]; written {
			continue
		}
		p.Reset()
		if _, err := r.Lookup(0, key, allTS, r.cfg.IndexGranularity, &p); err != nil {
			t.Fatal(err)
		}
		if len(p.Recs) != 0 {
			t.Fatalf("Lookup(%d) found %d records under a key never written", key, len(p.Recs))
		}
	}
}

// TestFilterRejectsMostAbsentKeys: 10 bits and 7 probes per record should
// turn away ~99 % of keys that are inside the run's span but not in it —
// the property that makes a Get cost ~1 run read instead of one per run.
func TestFilterRejectsMostAbsentKeys(t *testing.T) {
	vol := ssdVolume(t, 8<<20)
	recs := sortedRecs(20000, 2) // even keys
	run, _, err := WriteRun(vol, 0, 0, 1, recs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	admitted := 0
	const probes = 20000
	for i := 0; i < probes; i++ {
		key := uint64(2*i + 1) // odd: inside the span, never written
		if run.Admits(key, KeyHash(key), 1<<62) {
			admitted++
		}
	}
	if rate := float64(admitted) / probes; rate > 0.02 {
		t.Fatalf("filter admits %.2f%% of absent keys, want ≈ 0.8%%", 100*rate)
	}
	// The span and timestamp checks come before the filter.
	last := recs[len(recs)-1].Key
	if run.Admits(last+2, KeyHash(last+2), 1<<62) || run.Admits(recs[0].Key, KeyHash(recs[0].Key), recs[0].TS) {
		t.Fatal("a key past the run's span, or a timestamp at the run's oldest record, was admitted")
	}
}

// TestLookupAllocations: a point probe allocates nothing — not when the
// filter turns the key away, and not when the window is read and holds no
// match (the buffer is the caller's, reused across lookups).
func TestLookupAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	vol := ssdVolume(t, 8<<20)
	run, _, err := WriteRun(vol, 0, 0, 1, sortedRecs(20000, 2), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var rejected, absent uint64
	for key := uint64(1); rejected == 0 || absent == 0; key += 2 {
		if run.Admits(key, KeyHash(key), 1<<62) {
			absent = key // a false positive: read, nothing found
		} else {
			rejected = key
		}
	}
	var p PointBuf
	gran := DefaultConfig().IndexGranularity
	lookup := func(key uint64) {
		p.Reset()
		if run.Admits(key, KeyHash(key), 1<<62) {
			if _, err := run.Lookup(0, key, 1<<62, gran, &p); err != nil {
				t.Fatal(err)
			}
		}
		if len(p.Recs) != 0 {
			t.Fatalf("key %d was never written", key)
		}
	}
	for name, key := range map[string]uint64{"rejected by the filter": rejected, "read, no match": absent} {
		if n := testing.AllocsPerRun(200, func() { lookup(key) }); n != 0 {
			t.Errorf("probe %s: %v allocs per lookup, want 0", name, n)
		}
	}
}
