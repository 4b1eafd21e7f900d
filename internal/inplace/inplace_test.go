package inplace

import (
	"math/rand"
	"testing"

	"masm/internal/sim"
	"masm/internal/storage"
	"masm/internal/table"
	"masm/internal/update"
)

func body(key uint64, size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(key + uint64(i))
	}
	return b
}

func loadTable(t *testing.T, n int) (*table.Table, *sim.Device) {
	t.Helper()
	dev := sim.NewDevice(sim.Barracuda7200())
	vol, err := storage.NewVolume(dev, 0, 2<<30)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]uint64, n)
	bodies := make([][]byte, n)
	for i := range keys {
		keys[i] = uint64(i+1) * 2
		bodies[i] = body(keys[i], 92)
	}
	tbl, err := table.Load(vol, table.DefaultConfig(), keys, bodies)
	if err != nil {
		t.Fatal(err)
	}
	return tbl, dev
}

func TestApplyUpdatesTable(t *testing.T) {
	tbl, _ := loadTable(t, 5000)
	u := NewUpdater(tbl)
	now, err := u.Apply(0, update.Record{TS: 1, Key: 100, Op: update.Delete})
	if err != nil {
		t.Fatal(err)
	}
	now, err = u.Apply(now, update.Record{TS: 2, Key: 101, Op: update.Insert, Payload: body(101, 92)})
	if err != nil {
		t.Fatal(err)
	}
	if now <= 0 {
		t.Fatal("no simulated time charged")
	}
	sc := tbl.NewScanner(now, 99, 103)
	seen := map[uint64]bool{}
	for {
		row, ok := sc.Next()
		if !ok {
			break
		}
		seen[row.Key] = true
	}
	if seen[100] || !seen[101] || !seen[102] {
		t.Fatalf("in-place application wrong: %v", seen)
	}
}

func TestApplyIsRandomIO(t *testing.T) {
	tbl, dev := loadTable(t, 50000)
	u := NewUpdater(tbl)
	dev.ResetStats()
	rng := rand.New(rand.NewSource(1))
	var now sim.Time
	for i := 0; i < 50; i++ {
		key := uint64(rng.Intn(100000)) + 1
		var err error
		now, err = u.Apply(now, update.Record{TS: int64(i + 1), Key: key, Op: update.Modify,
			Payload: update.EncodeFields([]update.Field{{Off: 0, Value: []byte("x")}})})
		if err != nil {
			t.Fatal(err)
		}
	}
	st := dev.Stats()
	if st.Seeks < 50 {
		t.Fatalf("random in-place updates performed only %d seeks for 50 updates", st.Seeks)
	}
}

func TestSustainedRateMatchesPaperOrder(t *testing.T) {
	// The paper measures 48 sustained in-place updates/sec on the 7200rpm
	// disk (Fig 12): each random read-modify-write costs roughly two
	// seek+rotation pairs (~25ms), giving ~40-80 upd/s.
	tbl, _ := loadTable(t, 100000)
	u := NewUpdater(tbl)
	rng := rand.New(rand.NewSource(7))
	rate, err := SustainedRate(u, func(i int64) update.Record {
		return update.Record{TS: i + 1, Key: uint64(rng.Intn(200000)) + 1, Op: update.Modify,
			Payload: update.EncodeFields([]update.Field{{Off: 0, Value: []byte("y")}})}
	}, 200)
	if err != nil {
		t.Fatal(err)
	}
	if rate < 20 || rate > 120 {
		t.Fatalf("sustained in-place rate = %.1f upd/s, want ~40-80 (paper: 48)", rate)
	}
}

func TestStreamActorInterferesWithScan(t *testing.T) {
	// The headline motivation experiment in miniature: a range scan with
	// a concurrent saturating update stream must slow down well beyond
	// the pure scan (paper §2.2: 1.5-4.1x).
	tbl, _ := loadTable(t, 200000)

	pure := tbl.NewScanner(0, 0, ^uint64(0))
	for {
		if _, ok := pure.Next(); !ok {
			break
		}
	}
	pureTime := pure.Time()

	tbl2, _ := loadTable(t, 200000)
	u := NewUpdater(tbl2)
	rng := rand.New(rand.NewSource(3))
	stream := NewStream(u, func(i int64) update.Record {
		return update.Record{TS: i + 1, Key: uint64(rng.Intn(400000)) + 1, Op: update.Modify,
			Payload: update.EncodeFields([]update.Field{{Off: 0, Value: []byte("z")}})}
	}, 0, -1)
	// Interleave the scan and the stream in minimum-local-time order, one
	// scan I/O per step, until the scan finishes.
	sc := tbl2.NewScanner(0, 0, ^uint64(0))
	for scanDone := false; !scanDone; {
		if sc.Time() > stream.Time() && stream.Step() {
			continue
		}
		before := sc.Time()
		for sc.Time() == before {
			if _, ok := sc.Next(); !ok {
				scanDone = true
				break
			}
		}
	}
	slowdown := float64(sc.Time()) / float64(pureTime)
	if slowdown < 1.4 {
		t.Fatalf("scan with online in-place updates slowed only %.2fx, want >= 1.4x", slowdown)
	}
	if stream.i == 0 {
		t.Fatal("stream applied no updates")
	}
	if stream.Err() != nil {
		t.Fatal(stream.Err())
	}
}

func TestStreamRespectsMax(t *testing.T) {
	tbl, _ := loadTable(t, 1000)
	u := NewUpdater(tbl)
	stream := NewStream(u, func(i int64) update.Record {
		return update.Record{TS: i + 1, Key: 2, Op: update.Modify,
			Payload: update.EncodeFields([]update.Field{{Off: 0, Value: []byte("q")}})}
	}, 0, 5)
	for stream.Step() {
	}
	if stream.i != 5 {
		t.Fatalf("stream applied %d, want 5", stream.i)
	}
}
