package table

// Shadow-paged migration relocates pages, so logically adjacent pages
// can sit at non-adjacent physical slots. Every byte window the scan
// path computes must therefore come from PHYSICAL slot numbers, with
// read batches broken at physical discontinuities — a window computed
// from a logical page index would read the wrong bytes the moment a
// migration moved a page. This test migrates only the middle of a
// table so the ref array gains old/new slot seams, sweeps scan windows
// across each seam, and cross-checks both the rows returned and the
// exact device bytes read.

import (
	"bytes"
	"fmt"
	"testing"

	"masm/internal/sim"
	"masm/internal/storage"
	"masm/internal/update"
)

func TestScanByteWindowsAcrossSlotSeam(t *testing.T) {
	dev := sim.NewDevice(sim.Barracuda7200())
	vol, err := storage.NewVolume(dev, 0, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4000
	keys := make([]uint64, n)
	bodies := make([][]byte, n)
	want := make(map[uint64][]byte, n)
	for i := range keys {
		keys[i] = uint64(i+1) * 2
		bodies[i] = body(keys[i], 92)
		want[keys[i]] = bodies[i]
	}
	tbl, err := Load(vol, DefaultConfig(), keys, bodies)
	if err != nil {
		t.Fatal(err)
	}

	// Replace every record of the middle third: the covered pages are
	// rewritten to shadow slots while their neighbours stay put, leaving a
	// physical seam at each end of the migrated range.
	lo, hi := uint64(2*n/3), uint64(4*n/3)
	var upds []update.Record
	ts := int64(1)
	for k := lo + (lo % 2); k <= hi; k += 2 {
		if _, ok := want[k]; !ok {
			continue
		}
		b := body(k+7, 92)
		upds = append(upds, update.Record{TS: ts, Key: k, Op: update.Insert, Payload: b})
		want[k] = b
		ts++
	}
	if _, _, err := tbl.ApplyStream(0, ts, update.NewSliceIterator(upds), 64<<10, lo, hi); err != nil {
		t.Fatal(err)
	}

	refs := tbl.Refs()
	var seams []int // i such that refs[i-1] and refs[i] are not physically adjacent
	for i := 1; i < len(refs); i++ {
		if refs[i].PageNo != refs[i-1].PageNo+1 {
			seams = append(seams, i)
		}
	}
	if len(seams) == 0 {
		t.Fatal("migration left the refs physically contiguous; nothing to sweep")
	}

	pageSize := int64(DefaultConfig().PageSize)
	// refAt returns the index of the ref whose page covers key.
	refAt := func(key uint64) int {
		i := 0
		for i+1 < len(refs) && refs[i+1].FirstKey <= key {
			i++
		}
		return i
	}
	// sweep scans [b, e], checks the rows against the model, and checks
	// the device read exactly the pages covering the range — no more (a
	// window spanning a seam would over-read), no fewer.
	sweep := func(b, e uint64) {
		t.Helper()
		before := dev.Stats()
		sc := tbl.NewScanner(0, b, e)
		var prev uint64
		got := 0
		for {
			row, ok := sc.Next()
			if !ok {
				break
			}
			if row.Key < b || row.Key > e {
				t.Fatalf("scan [%d,%d] returned out-of-range key %d", b, e, row.Key)
			}
			if got > 0 && row.Key <= prev {
				t.Fatalf("scan [%d,%d] keys not strictly increasing at %d", b, e, row.Key)
			}
			w, ok := want[row.Key]
			if !ok {
				t.Fatalf("scan [%d,%d] returned unknown key %d", b, e, row.Key)
			}
			if !bytes.Equal(row.Body, w) {
				t.Fatalf("scan [%d,%d] key %d: wrong body (stale pre-migration slot?)", b, e, row.Key)
			}
			prev = row.Key
			got++
		}
		if err := sc.Err(); err != nil {
			t.Fatalf("scan [%d,%d]: %v", b, e, err)
		}
		wantRows := 0
		for k := range want {
			if k >= b && k <= e {
				wantRows++
			}
		}
		if got != wantRows {
			t.Fatalf("scan [%d,%d] returned %d rows, want %d", b, e, got, wantRows)
		}
		pages := int64(refAt(e) - refAt(b) + 1)
		if delta := dev.Stats().BytesRead - before.BytesRead; delta != pages*pageSize {
			t.Fatalf("scan [%d,%d] read %d bytes, want %d (%d pages × %d)",
				b, e, delta, pages*pageSize, pages, pageSize)
		}
	}

	for _, si := range seams {
		// Window boundaries swept across the seam: fully before, straddling
		// with both tight and wide margins, and fully after.
		seamKey := refs[si].FirstKey
		beforeKey := refs[si-1].FirstKey
		t.Run(fmt.Sprintf("seam@ref%d", si), func(t *testing.T) {
			sweep(beforeKey, seamKey-1)      // ends on the last old-slot page
			sweep(beforeKey, seamKey)        // one key past the seam
			sweep(beforeKey, seamKey+20)     // a few rows past
			sweep(seamKey-1, seamKey+1)      // tight straddle
			sweep(seamKey, seamKey+20)       // starts on the new-slot page
			if si >= 2 && si+2 < len(refs) { // wide straddle: several pages each side
				sweep(refs[si-2].FirstKey, refs[si+2].FirstKey)
			}
		})
	}

	// The whole-table scan crosses every seam in one pass.
	sweep(0, ^uint64(0))
}
