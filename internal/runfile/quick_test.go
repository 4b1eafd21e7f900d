package runfile

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"masm/internal/sim"
	"masm/internal/storage"
	"masm/internal/update"
)

// TestQuickRunRoundTrip: any sorted record multiset written as a run scans
// back identically, at every index granularity, over random sub-ranges.
func TestQuickRunRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint16, granSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%3000) + 1
		recs := make([]update.Record, n)
		for i := range recs {
			recs[i] = update.Record{
				TS:      int64(i + 1),
				Key:     uint64(rng.Intn(n * 2)),
				Op:      update.Delete,
				Payload: nil,
			}
			if rng.Intn(2) == 0 {
				recs[i].Op = update.Insert
				recs[i].Payload = make([]byte, rng.Intn(120))
				rng.Read(recs[i].Payload)
			}
		}
		sort.SliceStable(recs, func(i, j int) bool { return update.Less(&recs[i], &recs[j]) })
		dev := sim.NewDevice(sim.IntelX25E())
		vol, err := storage.NewVolume(dev, 0, 16<<20)
		if err != nil {
			return false
		}
		run, end, err := WriteRun(vol, 0, 0, 1, recs, DefaultConfig())
		if err != nil {
			return false
		}
		grans := []int{4 << 10, 16 << 10, 64 << 10}
		gran := grans[int(granSel)%len(grans)]
		for trial := 0; trial < 3; trial++ {
			lo := uint64(rng.Intn(n * 2))
			hi := lo + uint64(rng.Intn(n))
			var want []update.Record
			for _, r := range recs {
				if r.Key >= lo && r.Key <= hi {
					want = append(want, r)
				}
			}
			sc := run.Scan(end, lo, hi, int64(1)<<62, gran)
			for _, w := range want {
				got, ok, err := sc.Next()
				if err != nil || !ok {
					return false
				}
				if got.Key != w.Key || got.TS != w.TS || got.Op != w.Op ||
					!bytes.Equal(got.Payload, w.Payload) {
					return false
				}
			}
			if _, ok, err := sc.Next(); ok || err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
