package runfile

import (
	"testing"

	"masm/internal/sim"
	"masm/internal/storage"
	"masm/internal/update"
)

func ssdVolume(t *testing.T, size int64) *storage.Volume {
	t.Helper()
	dev := sim.NewDevice(sim.IntelX25E())
	v, err := storage.NewVolume(dev, 0, size)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func sortedRecs(n int, stride uint64) []update.Record {
	recs := make([]update.Record, n)
	for i := range recs {
		recs[i] = update.Record{
			TS:      int64(i + 1),
			Key:     uint64(i) * stride,
			Op:      update.Insert,
			Payload: make([]byte, 83), // 100-byte encoded records
		}
		recs[i].Payload[0] = byte(i)
	}
	return recs
}

func TestWriteAndFullScan(t *testing.T) {
	vol := ssdVolume(t, 64<<20)
	recs := sortedRecs(10000, 3)
	run, end, err := WriteRun(vol, 0, 0, 1, recs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if end <= 0 {
		t.Fatal("write charged no time")
	}
	if run.Count != 10000 || run.MinKey != 0 || run.MaxKey != 9999*3 {
		t.Fatalf("run meta: %+v", run)
	}
	sc := run.Scan(end, 0, ^uint64(0), 1<<62, 4<<10)
	for i := 0; ; i++ {
		rec, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			if i != 10000 {
				t.Fatalf("scan returned %d records, want 10000", i)
			}
			break
		}
		if rec.Key != uint64(i)*3 || rec.TS != int64(i+1) || rec.Payload[0] != byte(i) {
			t.Fatalf("record %d mismatch: %+v", i, rec)
		}
	}
}

func TestScanNarrowRange(t *testing.T) {
	vol := ssdVolume(t, 64<<20)
	recs := sortedRecs(50000, 2)
	run, end, err := WriteRun(vol, 0, 0, 1, recs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		begin, endKey uint64
		want          int
	}{
		{100, 200, 51},
		{0, 0, 1},
		{99999, 99999, 0}, // odd key absent
		{99998, 99998, 1}, // max key
		{200000, 300000, 0},
	} {
		sc := run.Scan(end, tc.begin, tc.endKey, 1<<62, 4<<10)
		got := 0
		for {
			rec, ok, err := sc.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if rec.Key < tc.begin || rec.Key > tc.endKey {
				t.Fatalf("range [%d,%d]: key %d", tc.begin, tc.endKey, rec.Key)
			}
			got++
		}
		if got != tc.want {
			t.Fatalf("range [%d,%d]: %d records, want %d", tc.begin, tc.endKey, got, tc.want)
		}
	}
}

func TestFineIndexReadsLessThanCoarse(t *testing.T) {
	vol := ssdVolume(t, 64<<20)
	recs := sortedRecs(50000, 2)
	run, _, err := WriteRun(vol, 0, 0, 1, recs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fine := run.ReadCost(1000, 1010, 4<<10)
	coarse := run.ReadCost(1000, 1010, 64<<10)
	if fine >= coarse {
		t.Fatalf("fine index read cost %d >= coarse %d", fine, coarse)
	}
	if fine > 8<<10 {
		t.Fatalf("fine index reads %d bytes for a tiny range, want <= 8KB", fine)
	}
}

func TestScanTimestampFilter(t *testing.T) {
	vol := ssdVolume(t, 16<<20)
	recs := sortedRecs(1000, 1)
	run, _, err := WriteRun(vol, 0, 0, 1, recs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sc := run.Scan(0, 0, ^uint64(0), 501, 4<<10) // sees ts 1..500
	n := 0
	for {
		rec, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if rec.TS >= 501 {
			t.Fatalf("invisible record ts=%d returned", rec.TS)
		}
		n++
	}
	if n != 500 {
		t.Fatalf("scan saw %d, want 500", n)
	}
}

func TestScanSkipTo(t *testing.T) {
	vol := ssdVolume(t, 16<<20)
	recs := sortedRecs(1000, 1)
	run, _, err := WriteRun(vol, 0, 0, 1, recs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sc := run.Scan(0, 0, ^uint64(0), 1<<62, 4<<10)
	sc.SkipTo(499, 500) // record #500 (key 499, ts 500)
	rec, ok, err := sc.Next()
	if err != nil || !ok {
		t.Fatalf("next after skip: %v %v", ok, err)
	}
	if rec.Key != 500 {
		t.Fatalf("first record after skip = key %d, want 500", rec.Key)
	}
}

func TestWriterRejectsOutOfOrder(t *testing.T) {
	vol := ssdVolume(t, 1<<20)
	w, err := NewWriter(vol, 0, 0, 1, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(update.Record{TS: 1, Key: 10, Op: update.Delete}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(update.Record{TS: 1, Key: 5, Op: update.Delete}); err == nil {
		t.Fatal("out-of-order append accepted")
	}
}

func TestRunWritesAreSequential(t *testing.T) {
	dev := sim.NewDevice(sim.IntelX25E())
	vol, _ := storage.NewVolume(dev, 0, 64<<20)
	recs := sortedRecs(100000, 1)
	if _, _, err := WriteRun(vol, 0, 0, 1, recs, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if rw := dev.Stats().RandomWrites; rw != 0 {
		t.Fatalf("run writing performed %d random SSD writes, want 0 (design goal 2)", rw)
	}
}

func TestEmptyRun(t *testing.T) {
	vol := ssdVolume(t, 1<<20)
	run, _, err := WriteRun(vol, 0, 0, 1, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sc := run.Scan(0, 0, ^uint64(0), 1<<62, 4<<10)
	if _, ok, err := sc.Next(); ok || err != nil {
		t.Fatalf("empty run scan: ok=%v err=%v", ok, err)
	}
}

func TestDuplicateKeysAcrossGranules(t *testing.T) {
	// Many records with the same key spanning several index granules: a
	// range starting exactly at that key must see all of them.
	vol := ssdVolume(t, 16<<20)
	var recs []update.Record
	for i := 0; i < 500; i++ {
		recs = append(recs, update.Record{TS: int64(i + 1), Key: 1000, Op: update.Modify,
			Payload: update.EncodeFields([]update.Field{{Off: 0, Value: make([]byte, 40)}})})
	}
	for i := 0; i < 500; i++ {
		recs = append(recs, update.Record{TS: int64(i + 1000), Key: 2000, Op: update.Delete})
	}
	run, _, err := WriteRun(vol, 0, 0, 1, recs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sc := run.Scan(0, 1000, 1000, 1<<62, 4<<10)
	n := 0
	for {
		_, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
	}
	if n != 500 {
		t.Fatalf("saw %d duplicates, want 500", n)
	}
}

func TestIndexGranularitySpaceTradeoff(t *testing.T) {
	vol := ssdVolume(t, 64<<20)
	recs := sortedRecs(50000, 2)
	fineCfg := Config{IOSize: 64 << 10, IndexGranularity: 4 << 10}
	coarseCfg := Config{IOSize: 64 << 10, IndexGranularity: 64 << 10}
	fine, _, err := WriteRun(vol, 0, 0, 1, recs, fineCfg)
	if err != nil {
		t.Fatal(err)
	}
	coarse, _, err := WriteRun(vol, 16<<20, 0, 2, recs, coarseCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fine.index) <= len(coarse.index) {
		t.Fatalf("fine index (%d entries) not larger than coarse (%d)",
			len(fine.index), len(coarse.index))
	}
	// ~16x ratio expected.
	if r := float64(len(fine.index)) / float64(len(coarse.index)); r < 8 {
		t.Fatalf("granularity ratio = %.1f, want >= 8", r)
	}
}

// SkipTo positions the scanner just after record (key, ts), so a reader
// can resume a run mid-stream.
func (s *Scanner) SkipTo(key uint64, ts int64) {
	s.skipKey, s.skipTS, s.skipValid = key, ts, true
}

// ReadCost estimates, without performing it, the number of SSD bytes a
// scan of [begin, end] would read at granularity gran: the low
// query-overhead analysis of §3.7.
func (r *Run) ReadCost(begin, end uint64, gran int) int64 {
	start, limit := r.scanBounds(begin, end, gran)
	return limit - start
}
