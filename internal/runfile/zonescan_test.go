package runfile

import (
	"fmt"
	"math/rand"
	"testing"

	"masm/internal/update"
)

// predFilter applies a key predicate on top of expectVisible: the oracle
// every predicated scan is checked against.
func predFilter(recs []update.Record, pred *update.Pred) []update.Record {
	if pred == nil {
		return recs
	}
	var out []update.Record
	for _, r := range recs {
		if pred.Match(r.Key) {
			out = append(out, r)
		}
	}
	return out
}

// TestScanPredNilIsPlainScan pins the golden-bit-identity invariant: a
// nil predicate must produce the exact record stream AND the exact
// simulated completion time of the unpredicated scan — zone maps are
// always built, but they may only change behaviour when a predicate is
// pushed down.
func TestScanPredNilIsPlainScan(t *testing.T) {
	// Two identical runs on two fresh volumes: the simulated devices are
	// stateful, so timing comparisons need independent clocks.
	runA, _, cfg := boundsRun(t)
	runB, _, _ := boundsRun(t)
	for _, gran := range []int{cfg.IndexGranularity, 8 * cfg.IndexGranularity} {
		plain := runA.Scan(0, 15, 300, 1<<62, gran)
		pr := runB.ScanPred(0, 15, 300, 1<<62, gran, nil)
		a := drainScanner(t, plain)
		b := drainScanner(t, pr)
		if !sameRecords(a, b) {
			t.Fatalf("gran %d: nil-pred scan diverged (%d vs %d records)", gran, len(a), len(b))
		}
		if plain.Time() != pr.Time() {
			t.Fatalf("gran %d: nil-pred scan time %d != plain %d", gran, pr.Time(), plain.Time())
		}
		if g, f := pr.Stats(); g != 0 || f != 0 {
			t.Fatalf("gran %d: nil-pred scan reported %d skipped granules, %d filtered", gran, g, f)
		}
	}
}

// TestScanPredSeamSweep is the zone-map analogue of
// TestScanBoundsBoundaryKeys: predicate ranges placed exactly on, one
// below and one above every granule boundary key (the run-index entry
// keys), at build and subsampled granularities. Pruning with such ranges
// must return byte-identical records to a full scan plus linear filter.
func TestScanPredSeamSweep(t *testing.T) {
	run, recs, cfg := boundsRun(t)
	// The seam keys: every index entry's key (first key at/after each
	// granule boundary), ±1.
	seams := make(map[uint64]bool)
	for _, e := range run.index {
		if e.key > 0 {
			seams[e.key-1] = true
		}
		seams[e.key] = true
		seams[e.key+1] = true
	}
	grans := []int{cfg.IndexGranularity, 2 * cfg.IndexGranularity, 8 * cfg.IndexGranularity}
	for _, gran := range grans {
		for lo := range seams {
			for _, width := range []uint64{0, 1, 2, 25} {
				hi := lo + width
				pred := update.NewPred([]update.KeyRange{{Lo: lo, Hi: hi}})
				name := fmt.Sprintf("gran=%d/lo=%d/hi=%d", gran, lo, hi)
				want := predFilter(expectVisible(recs, 0, ^uint64(0), 1<<62, false, 0, 0), pred)
				sc := run.ScanPred(0, 0, ^uint64(0), 1<<62, gran, pred)
				got := drainScanner(t, sc)
				if !sameRecords(got, want) {
					t.Errorf("%s: %d records, want %d", name, len(got), len(want))
				}
			}
		}
	}
}

// TestScanPredDifferential randomizes runs, predicates, scan bounds and
// granularities: pruning + pushdown must be byte-identical to the naive
// full-scan-then-filter.
func TestScanPredDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		cfg := Config{IOSize: 256 << rng.Intn(3), IndexGranularity: 64 << rng.Intn(3)}
		var recs []update.Record
		key, ts := uint64(rng.Intn(50)), int64(0)
		n := 50 + rng.Intn(400)
		for i := 0; i < n; i++ {
			key += uint64(rng.Intn(12)) // 0 keeps duplicate chains
			ts++
			recs = append(recs, update.Record{
				TS: ts, Key: key, Op: update.Insert,
				Payload: make([]byte, rng.Intn(60)),
			})
		}
		vol := ssdVolume(t, 1<<20)
		run, _, err := WriteRun(vol, 0, 0, 1, recs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for probe := 0; probe < 10; probe++ {
			var ranges []update.KeyRange
			for i := 0; i < 1+rng.Intn(4); i++ {
				lo := uint64(rng.Intn(int(key) + 2))
				ranges = append(ranges, update.KeyRange{Lo: lo, Hi: lo + uint64(rng.Intn(40))})
			}
			pred := update.NewPred(ranges)
			begin := uint64(rng.Intn(int(key) + 2))
			end := begin + uint64(rng.Intn(int(key)+2))
			qts := int64(rng.Intn(int(ts) + 2))
			gran := cfg.IndexGranularity << rng.Intn(4)
			want := predFilter(expectVisible(recs, begin, end, qts, false, 0, 0), pred)
			got := drainScanner(t, run.ScanPred(0, begin, end, qts, gran, pred))
			if !sameRecords(got, want) {
				t.Fatalf("trial %d probe %d (begin %d end %d qts %d gran %d ranges %v): %d records, want %d",
					trial, probe, begin, end, qts, gran, ranges, len(got), len(want))
			}
		}
	}
}

// TestScanPredPrunesReads pins the sim-time invariant: a skipped
// granule's device read is never submitted, so a selective predicate
// must finish strictly earlier than the full scan — and report the
// granules it skipped.
func TestScanPredPrunesReads(t *testing.T) {
	cfg := Config{IOSize: 4 << 10, IndexGranularity: 4 << 10}
	recs := sortedRecs(4000, 3) // ~400KB of data, ~100 granules
	// Independent volumes: the simulated devices are stateful, so the two
	// scans need independent clocks for their times to be comparable.
	volA := ssdVolume(t, 1<<20)
	runA, _, err := WriteRun(volA, 0, 0, 1, recs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	volB := ssdVolume(t, 1<<20)
	runB, _, err := WriteRun(volB, 0, 0, 1, recs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	full := runA.Scan(0, 0, ^uint64(0), 1<<62, cfg.IndexGranularity)
	fullRecs := drainScanner(t, full)

	// One narrow range in the middle: all but a couple of granules prune.
	pred := update.NewPred([]update.KeyRange{{Lo: 6000, Hi: 6060}})
	sc := runB.ScanPred(0, 0, ^uint64(0), 1<<62, cfg.IndexGranularity, pred)
	got := drainScanner(t, sc)
	want := predFilter(fullRecs, pred)
	if !sameRecords(got, want) {
		t.Fatalf("pruned scan returned %d records, want %d", len(got), len(want))
	}
	skipped, _ := sc.Stats()
	if skipped == 0 {
		t.Fatal("selective predicate skipped no granules")
	}
	if sc.Time() >= full.Time() {
		t.Fatalf("pruned scan time %d not earlier than full scan %d", sc.Time(), full.Time())
	}
}

// TestScanPredFiltersBelowMerge checks the per-record filter half of
// pushdown: granules that survive pruning (the predicate overlaps their
// span) still filter non-matching records before they surface, and
// report the count.
func TestScanPredFiltersBelowMerge(t *testing.T) {
	run, recs, cfg := boundsRun(t)
	// Every granule of boundsRun spans multiple keys, so a single-key
	// predicate survives pruning somewhere and filters its neighbours.
	pred := update.NewPred([]update.KeyRange{{Lo: 200, Hi: 200}})
	sc := run.ScanPred(0, 0, ^uint64(0), 1<<62, cfg.IndexGranularity, pred)
	got := drainScanner(t, sc)
	want := predFilter(expectVisible(recs, 0, ^uint64(0), 1<<62, false, 0, 0), pred)
	if !sameRecords(got, want) {
		t.Fatalf("%d records, want %d", len(got), len(want))
	}
	if _, filtered := sc.Stats(); filtered == 0 {
		t.Fatal("surviving granule filtered no records")
	}
}

// FuzzScanPredSeams fuzzes predicate ranges around granule seams: the
// fuzzer picks the anchor granule, a ±delta around its boundary key, a
// range width, scan bounds and granularity; pruning must stay
// byte-identical to scan-then-filter.
func FuzzScanPredSeams(f *testing.F) {
	f.Add(uint8(0), int8(-1), uint8(0), uint8(0), uint8(1))
	f.Add(uint8(3), int8(1), uint8(10), uint8(30), uint8(2))
	f.Add(uint8(255), int8(0), uint8(255), uint8(255), uint8(0))
	cfg := Config{IOSize: 256, IndexGranularity: 64}
	var recs []update.Record
	ts := int64(0)
	for key := uint64(10); key <= 400; key += 10 {
		for dup := 0; dup < 5; dup++ {
			ts++
			recs = append(recs, update.Record{
				TS: ts, Key: key, Op: update.Insert,
				Payload: []byte{byte(key), byte(dup), 0xAB},
			})
		}
	}
	vol := fuzzVolume(1 << 20)
	run, _, err := WriteRun(vol, 0, 0, 1, recs, cfg)
	if err != nil {
		f.Fatal(err)
	}
	maxTS := ts
	f.Fuzz(func(t *testing.T, granule uint8, delta int8, width uint8, beginSel uint8, granSel uint8) {
		if len(run.index) == 0 {
			t.Skip()
		}
		anchor := run.index[int(granule)%len(run.index)].key
		lo := anchor
		if delta < 0 {
			d := uint64(-int64(delta))
			if d > lo {
				d = lo
			}
			lo -= d
		} else {
			lo += uint64(delta)
		}
		hi := lo + uint64(width)
		pred := update.NewPred([]update.KeyRange{{Lo: lo, Hi: hi}})
		begin := uint64(beginSel) * 2
		end := begin + 300
		gran := cfg.IndexGranularity << (int(granSel) % 4)
		want := predFilter(expectVisible(recs, begin, end, maxTS+1, false, 0, 0), pred)
		got := drainScanner(t, run.ScanPred(0, begin, end, maxTS+1, gran, pred))
		if !sameRecords(got, want) {
			t.Fatalf("seam lo=%d hi=%d begin=%d end=%d gran=%d: %d records, want %d",
				lo, hi, begin, end, gran, len(got), len(want))
		}
	})
}

// TestLoadIndexDetectsCorruption flips one byte of the data and of the
// block: both opens must fail. So must an open whose logged checksum does
// not match the data — zero included: no descriptor lacks a checksum.
func TestLoadIndexDetectsCorruption(t *testing.T) {
	cfg := Config{IOSize: 256, IndexGranularity: 64}
	recs := sortedRecs(200, 3)
	flip := func(corruptAt int64) error {
		vol := ssdVolume(t, 1<<20)
		run, _, err := WriteRun(vol, 0, 0, 1, recs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]byte, 1)
		if err := vol.PeekAt(b, corruptAt); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0x40
		if err := vol.PokeAt(b, corruptAt); err != nil {
			t.Fatal(err)
		}
		_, _, err = LoadIndex(vol, run.Off, run.Size, run.IndexSize, 0, 1, run.Passes, run.CRC, cfg)
		return err
	}
	if err := flip(100); err == nil {
		t.Fatal("LoadIndex accepted corrupted data")
	}
	vol := ssdVolume(t, 1<<20)
	run, _, err := WriteRun(vol, 0, 0, 1, recs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := flip(run.Size + 10); err == nil {
		t.Fatal("LoadIndex accepted corrupted zone-map block")
	}
	for _, logged := range []uint32{0, run.CRC + 1} {
		if _, _, err := LoadIndex(vol, run.Off, run.Size, run.IndexSize, 0, 1, run.Passes, logged, cfg); err == nil {
			t.Fatalf("LoadIndex accepted logged checksum %08x over data with %08x", logged, run.CRC)
		}
		if _, _, err := LoadIndexOffline(vol, run.Off, run.Size, run.IndexSize, 1, run.Passes, logged, cfg); err == nil {
			t.Fatalf("LoadIndexOffline accepted logged checksum %08x over data with %08x", logged, run.CRC)
		}
	}
}
