package table

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"masm/internal/sim"
	"masm/internal/storage"
	"masm/internal/update"
)

// TestQuickLoadScanEquivalence: for random sorted key sets and random
// ranges, a range scan returns exactly the keys in range.
func TestQuickLoadScanEquivalence(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%2000) + 1
		keySet := make(map[uint64]bool, n)
		for len(keySet) < n {
			keySet[uint64(rng.Intn(10*n))+1] = true
		}
		keys := make([]uint64, 0, n)
		for k := range keySet {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		bodies := make([][]byte, n)
		for i := range bodies {
			bodies[i] = []byte{byte(keys[i]), byte(keys[i] >> 8), byte(i)}
		}
		dev := sim.NewDevice(sim.Barracuda7200())
		vol, err := storage.NewVolume(dev, 0, 64<<20)
		if err != nil {
			return false
		}
		tbl, err := Load(vol, DefaultConfig(), keys, bodies)
		if err != nil {
			return false
		}
		for trial := 0; trial < 5; trial++ {
			lo := uint64(rng.Intn(12 * n))
			hi := lo + uint64(rng.Intn(3*n))
			want := 0
			for _, k := range keys {
				if k >= lo && k <= hi {
					want++
				}
			}
			got := 0
			sc := tbl.NewScanner(0, lo, hi)
			var prev uint64
			for {
				row, ok := sc.Next()
				if !ok {
					break
				}
				if row.Key < lo || row.Key > hi {
					return false
				}
				if got > 0 && row.Key <= prev {
					return false
				}
				prev = row.Key
				got++
			}
			if got != want || sc.Err() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMigrationEquivalence: applying a random sorted update stream
// via ApplyStream leaves the table equal to a map model.
func TestQuickMigrationEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 500
		keys := make([]uint64, n)
		model := make(map[uint64][]byte, n)
		bodies := make([][]byte, n)
		for i := range keys {
			keys[i] = uint64(i+1) * 2
			bodies[i] = []byte{byte(i), byte(i >> 8), 7, 7}
			model[keys[i]] = bodies[i]
		}
		dev := sim.NewDevice(sim.Barracuda7200())
		vol, _ := storage.NewVolume(dev, 0, 64<<20)
		tbl, err := Load(vol, DefaultConfig(), keys, bodies)
		if err != nil {
			return false
		}
		var upds []update.Record
		for i := 0; i < 300; i++ {
			key := uint64(rng.Intn(3*n)) + 1
			var rec update.Record
			switch rng.Intn(3) {
			case 0:
				rec = update.Record{TS: int64(i + 1), Key: key, Op: update.Insert,
					Payload: []byte{byte(i), 1, 2, 3}}
			case 1:
				rec = update.Record{TS: int64(i + 1), Key: key, Op: update.Delete}
			default:
				rec = update.Record{TS: int64(i + 1), Key: key, Op: update.Modify,
					Payload: update.EncodeFields([]update.Field{{Off: 0, Value: []byte{byte(i)}}})}
			}
			upds = append(upds, rec)
			old, ok := model[key]
			nb, exists := update.Apply(old, ok, &rec)
			if exists {
				model[key] = nb
			} else {
				delete(model, key)
			}
		}
		sort.SliceStable(upds, func(i, j int) bool { return update.Less(&upds[i], &upds[j]) })
		if _, _, err := tbl.ApplyStream(0, 1000, update.NewSliceIterator(upds), 1<<20, 0, ^uint64(0)); err != nil {
			return false
		}
		got := make(map[uint64][]byte)
		sc := tbl.NewScanner(0, 0, ^uint64(0))
		for {
			row, ok := sc.Next()
			if !ok {
				break
			}
			got[row.Key] = append([]byte(nil), row.Body...)
		}
		if len(got) != len(model) {
			return false
		}
		for k, v := range model {
			gv, ok := got[k]
			if !ok || len(gv) != len(v) {
				return false
			}
			for i := range v {
				if gv[i] != v[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
