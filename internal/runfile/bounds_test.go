package runfile

import (
	"fmt"
	"testing"

	"masm/internal/update"
)

// boundsRun writes a run designed to stress scanBounds: duplicate-key
// chains straddling granule boundaries, keys exactly on index entries,
// and gaps, built at fine granularity so coarse scans subsample.
func boundsRun(t *testing.T) (*Run, []update.Record, Config) {
	t.Helper()
	cfg := Config{IOSize: 256, IndexGranularity: 64}
	var recs []update.Record
	ts := int64(0)
	// Keys 10, 20, 30, ... each repeated 5 times: with ~26-byte encoded
	// records and 64-byte granules, chains of one key regularly straddle
	// granule (and IO) boundaries.
	for key := uint64(10); key <= 400; key += 10 {
		for dup := 0; dup < 5; dup++ {
			ts++
			recs = append(recs, update.Record{
				TS: ts, Key: key, Op: update.Insert,
				Payload: []byte{byte(key), byte(dup), 0xAB, 0xCD, 0xEF, 0x01, 0x02},
			})
		}
	}
	vol := ssdVolume(t, 1<<20)
	run, _, err := WriteRun(vol, 0, 0, 1, recs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return run, recs, cfg
}

func drainScanner(t *testing.T, sc *Scanner) []update.Record {
	t.Helper()
	var out []update.Record
	for {
		rec, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, rec)
	}
}

// expectVisible filters the written records the way a correct scan must.
func expectVisible(recs []update.Record, begin, end uint64, qts int64, skip bool, skipKey uint64, skipTS int64) []update.Record {
	var out []update.Record
	for _, r := range recs {
		if r.Key < begin || r.Key > end || r.TS >= qts {
			continue
		}
		if skip {
			cur := update.Record{Key: r.Key, TS: r.TS}
			bound := update.Record{Key: skipKey, TS: skipTS}
			if !update.Less(&bound, &cur) {
				continue
			}
		}
		out = append(out, r)
	}
	return out
}

func sameRecords(a, b []update.Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key != b[i].Key || a[i].TS != b[i].TS || string(a[i].Payload) != string(b[i].Payload) {
			return false
		}
	}
	return true
}

// TestScanBoundsBoundaryKeys sweeps [begin, end] combinations that sit
// exactly on, one below and one above stored keys — including the run's
// min and max keys — at the build granularity and at coarser subsampled
// granularities. Every combination must return exactly the records a
// linear filter of the input selects.
func TestScanBoundsBoundaryKeys(t *testing.T) {
	run, recs, cfg := boundsRun(t)
	begins := []uint64{0, 9, 10, 11, 15, 200, 399, 400, 401, 500}
	ends := []uint64{0, 9, 10, 11, 205, 399, 400, 401, ^uint64(0)}
	grans := []int{cfg.IndexGranularity, 2 * cfg.IndexGranularity, 8 * cfg.IndexGranularity, 64 * cfg.IndexGranularity}
	for _, gran := range grans {
		for _, begin := range begins {
			for _, end := range ends {
				name := fmt.Sprintf("gran=%d/begin=%d/end=%d", gran, begin, end)
				want := expectVisible(recs, begin, end, 1<<62, false, 0, 0)
				got := drainScanner(t, run.Scan(0, begin, end, 1<<62, gran))
				if !sameRecords(got, want) {
					t.Errorf("%s: scan returned %d records, want %d", name, len(got), len(want))
				}
				// The indexed byte window must cover at least the matching
				// records and stay within the run.
				start, limit := run.scanBounds(begin, end, gran)
				if start < 0 || limit > run.Size || start > limit {
					t.Errorf("%s: bad bounds [%d, %d) of size %d", name, start, limit, run.Size)
				}
			}
		}
	}
}

// TestScannerSkipCarryOverBoundaries pins SkipTo behaviour when the
// resume point sits exactly on the range boundaries or mid-way through a
// duplicate-key chain: records at or before (key, ts) are suppressed,
// strictly later ones — including later duplicates of the same key —
// survive.
func TestScannerSkipCarryOverBoundaries(t *testing.T) {
	run, recs, cfg := boundsRun(t)
	cases := []struct {
		name       string
		begin, end uint64
		skipKey    uint64
		skipTS     int64
		qts        int64
	}{
		{"resume-at-begin-key-mid-chain", 10, 400, 10, 3, 1 << 62},
		{"resume-at-begin-key-chain-end", 10, 400, 10, 5, 1 << 62},
		{"resume-mid-range-mid-chain", 0, ^uint64(0), 200, 98, 1 << 62},
		{"resume-at-end-key", 10, 200, 200, 96, 1 << 62},
		{"resume-past-end-key", 10, 200, 200, 100, 1 << 62},
		{"resume-below-begin", 100, 300, 50, 25, 1 << 62},
		{"resume-at-max-key", 0, ^uint64(0), 400, 200, 1 << 62},
		{"resume-with-ts-filter", 0, ^uint64(0), 100, 48, 60},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, gran := range []int{cfg.IndexGranularity, 8 * cfg.IndexGranularity} {
				sc := run.Scan(0, tc.begin, tc.end, tc.qts, gran)
				sc.SkipTo(tc.skipKey, tc.skipTS)
				got := drainScanner(t, sc)
				want := expectVisible(recs, tc.begin, tc.end, tc.qts, true, tc.skipKey, tc.skipTS)
				if !sameRecords(got, want) {
					t.Errorf("gran=%d: got %d records, want %d", gran, len(got), len(want))
				}
			}
		})
	}
}

// TestScanBoundsDuplicateChainAcrossGranule pins the documented reason
// for the lo-1 step in scanBounds: when begin equals a key whose records
// started in the previous granule, the scan must still return the whole
// chain.
func TestScanBoundsDuplicateChainAcrossGranule(t *testing.T) {
	cfg := Config{IOSize: 256, IndexGranularity: 64}
	var recs []update.Record
	// One long chain of key 7 crossing several granules, then key 9.
	for i := 0; i < 30; i++ {
		recs = append(recs, update.Record{TS: int64(i + 1), Key: 7, Op: update.Insert, Payload: []byte{byte(i)}})
	}
	recs = append(recs, update.Record{TS: 31, Key: 9, Op: update.Insert, Payload: []byte{0x99}})
	vol := ssdVolume(t, 1<<20)
	run, _, err := WriteRun(vol, 0, 0, 1, recs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.index) < 3 {
		t.Fatalf("chain does not span granules: %d index entries", len(run.index))
	}
	got := drainScanner(t, run.Scan(0, 7, 7, 1<<62, cfg.IndexGranularity))
	if len(got) != 30 {
		t.Fatalf("begin==chain key: got %d records, want all 30", len(got))
	}
	got = drainScanner(t, run.Scan(0, 9, 9, 1<<62, cfg.IndexGranularity))
	if len(got) != 1 || got[0].Payload[0] != 0x99 {
		t.Fatalf("exact single-key scan after chain: %+v", got)
	}
}
