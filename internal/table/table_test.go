package table

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"masm/internal/sim"
	"masm/internal/storage"
	"masm/internal/update"
)

func body(key uint64, size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(key + uint64(i))
	}
	return b
}

func loadTable(t *testing.T, n int, stride uint64, bodySize int) *Table {
	t.Helper()
	dev := sim.NewDevice(sim.Barracuda7200())
	vol, err := storage.NewVolume(dev, 0, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]uint64, n)
	bodies := make([][]byte, n)
	for i := range keys {
		keys[i] = uint64(i+1) * stride
		bodies[i] = body(keys[i], bodySize)
	}
	tbl, err := Load(vol, DefaultConfig(), keys, bodies)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestPageEncodeDecodeRoundTrip(t *testing.T) {
	p := &Page{TS: 77}
	for k := uint64(10); k < 50; k += 10 {
		p.Keys = append(p.Keys, k)
		p.Bodies = append(p.Bodies, body(k, 20))
	}
	buf := make([]byte, 4096)
	if err := p.Encode(buf); err != nil {
		t.Fatal(err)
	}
	q, err := DecodePage(buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.TS != 77 || len(q.Keys) != 4 {
		t.Fatalf("decoded page ts=%d n=%d", q.TS, len(q.Keys))
	}
	for i := range q.Keys {
		if q.Keys[i] != p.Keys[i] || !bytes.Equal(q.Bodies[i], p.Bodies[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

// TestLookupMatchesDecode: Lookup's in-place walk finds what DecodePage
// and find find, for every loaded key and the gaps between them, reusing
// one page buffer; a corrupt page image is an error, not a panic.
func TestLookupMatchesDecode(t *testing.T) {
	tbl := loadTable(t, 2000, 2, 92)
	var page []byte
	for key := uint64(0); key <= 4003; key++ {
		row, found, _, err := tbl.Lookup(0, key, &page)
		if err != nil {
			t.Fatal(err)
		}
		p, _, err := tbl.ReadPageAt(0, tbl.PageForKey(key))
		if err != nil {
			t.Fatal(err)
		}
		i, want := p.find(key)
		if found != want || row.Key != key || row.PageTS != p.TS || found && !bytes.Equal(row.Body, p.Bodies[i]) {
			t.Fatalf("key %d: Lookup found %v (ts %d), decode found %v (ts %d)", key, found, row.PageTS, want, p.TS)
		}
	}
	good := make([]byte, 64)
	if err := (&Page{TS: 1, Keys: []uint64{5}, Bodies: [][]byte{body(5, 20)}}).Encode(good); err != nil {
		t.Fatal(err)
	}
	usedPastEnd := append([]byte(nil), good...)
	usedPastEnd[10], usedPastEnd[11] = 0xFF, 0xFF
	truncated := append([]byte(nil), good[:pageHeaderSize+recHeaderSize+4]...)
	truncated[10], truncated[11] = 0, 0 // used bytes that fit: the record itself is cut
	for name, buf := range map[string][]byte{
		"short":          good[:8],
		"used past end":  usedPastEnd,
		"truncated body": truncated,
	} {
		if _, _, err := findInPage(buf, 5); err == nil {
			t.Errorf("%s page: no error", name)
		}
	}
}

// TestPeekTake: Peek stays on its row until Take consumes it, Next is
// Peek then Take, and a released scanner reports the end.
func TestPeekTake(t *testing.T) {
	tbl := loadTable(t, 100, 2, 92)
	sc := tbl.NewScanner(0, 10, 1000)
	for _, want := range []uint64{10, 12} {
		if !sc.Peek() || !sc.Peek() || sc.Key() != want {
			t.Fatalf("Peek: key %d, want %d", sc.Key(), want)
		}
		if row := sc.Take(); row.Key != want || !bytes.Equal(row.Body, body(want, 92)) {
			t.Fatalf("Take: key %d, want %d", row.Key, want)
		}
	}
	if row, ok := sc.Next(); !ok || row.Key != 14 {
		t.Fatalf("Next after Take: key %d ok %v, want 14", row.Key, ok)
	}
	sc.Release()
	if sc.Peek() {
		t.Fatal("Peek after Release found a row")
	}
}

func TestPageEncodeOverflowRejected(t *testing.T) {
	p := &Page{}
	p.Keys = append(p.Keys, 1)
	p.Bodies = append(p.Bodies, make([]byte, 5000))
	if err := p.Encode(make([]byte, 4096)); err == nil {
		t.Fatal("oversized page encoded")
	}
}

func TestLoadAndFullScan(t *testing.T) {
	const n = 5000
	tbl := loadTable(t, n, 2, 92)
	sc := tbl.NewScanner(0, 0, ^uint64(0))
	count := 0
	var prev uint64
	for {
		row, ok := sc.Next()
		if !ok {
			break
		}
		if count > 0 && row.Key <= prev {
			t.Fatalf("keys out of order: %d after %d", row.Key, prev)
		}
		if !bytes.Equal(row.Body, body(row.Key, 92)) {
			t.Fatalf("key %d body mismatch", row.Key)
		}
		prev = row.Key
		count++
	}
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
	if count != n {
		t.Fatalf("scanned %d rows, want %d", count, n)
	}
	if sc.Time() <= 0 {
		t.Fatal("scan charged no simulated time")
	}
}

func TestRangeScanBounds(t *testing.T) {
	tbl := loadTable(t, 10000, 2, 92)
	for _, tc := range []struct{ begin, end uint64 }{
		{100, 200},
		{2, 2},
		{1, 1},  // key that does not exist (odd)
		{0, 10}, // partially before first key
		{19990, 30000},
	} {
		sc := tbl.NewScanner(0, tc.begin, tc.end)
		want := 0
		for k := tc.begin; k <= tc.end && k <= 20000; k++ {
			if k%2 == 0 && k >= 2 {
				want++
			}
		}
		got := 0
		for {
			row, ok := sc.Next()
			if !ok {
				break
			}
			if row.Key < tc.begin || row.Key > tc.end {
				t.Fatalf("range [%d,%d]: got key %d", tc.begin, tc.end, row.Key)
			}
			got++
		}
		if got != want {
			t.Fatalf("range [%d,%d]: got %d rows, want %d", tc.begin, tc.end, got, want)
		}
	}
}

func TestScanUsesLargeSequentialIO(t *testing.T) {
	tbl := loadTable(t, 50000, 2, 92)
	dev := tbl.vol.Device()
	dev.ResetStats()
	sc := tbl.NewScanner(0, 0, ^uint64(0))
	for {
		if _, ok := sc.Next(); !ok {
			break
		}
	}
	st := dev.Stats()
	if st.Reads == 0 {
		t.Fatal("no reads recorded")
	}
	avg := st.BytesRead / st.Reads
	if avg < 512<<10 {
		t.Fatalf("average scan I/O = %d bytes, want >= 512KB", avg)
	}
	if st.Seeks > 2 {
		t.Fatalf("full scan performed %d seeks, want <=2", st.Seeks)
	}
}

func TestApplyUpdatesToPageSemantics(t *testing.T) {
	p := &Page{TS: 0}
	for k := uint64(10); k <= 40; k += 10 {
		p.Keys = append(p.Keys, k)
		p.Bodies = append(p.Bodies, body(k, 20))
	}
	upds := []update.Record{
		{TS: 1, Key: 10, Op: update.Delete},
		{TS: 2, Key: 15, Op: update.Insert, Payload: body(15, 20)},
		{TS: 3, Key: 20, Op: update.Modify, Payload: update.EncodeFields([]update.Field{{Off: 0, Value: []byte("ZZ")}})},
		{TS: 4, Key: 40, Op: update.Replace, Payload: body(99, 20)},
	}
	ovf := ApplyUpdatesToPage(p, upds, 5, 4096)
	if ovf != nil {
		t.Fatal("unexpected overflow")
	}
	if p.TS != 5 {
		t.Fatalf("page ts = %d, want 5", p.TS)
	}
	wantKeys := []uint64{15, 20, 30, 40}
	if len(p.Keys) != len(wantKeys) {
		t.Fatalf("keys = %v, want %v", p.Keys, wantKeys)
	}
	for i, k := range wantKeys {
		if p.Keys[i] != k {
			t.Fatalf("keys = %v, want %v", p.Keys, wantKeys)
		}
	}
	if p.Bodies[1][0] != 'Z' || p.Bodies[1][1] != 'Z' {
		t.Fatalf("modify not applied: %v", p.Bodies[1][:4])
	}
	if !bytes.Equal(p.Bodies[3], body(99, 20)) {
		t.Fatal("replace not applied")
	}
}

func TestApplyUpdatesSkipsAlreadyApplied(t *testing.T) {
	p := &Page{TS: 100, Keys: []uint64{10}, Bodies: [][]byte{body(10, 20)}}
	upds := []update.Record{{TS: 50, Key: 10, Op: update.Delete}} // older than page
	ApplyUpdatesToPage(p, upds, 100, 4096)
	if len(p.Keys) != 1 {
		t.Fatal("already-applied update re-applied")
	}
}

func TestApplyUpdatesOverflowSplits(t *testing.T) {
	p := &Page{TS: 0}
	// Nearly fill a 4KB page.
	for k := uint64(0); k < 36; k++ {
		p.Keys = append(p.Keys, k*10)
		p.Bodies = append(p.Bodies, body(k, 96))
	}
	var upds []update.Record
	for k := uint64(0); k < 10; k++ {
		upds = append(upds, update.Record{TS: int64(k + 1), Key: k*10 + 5, Op: update.Insert, Payload: body(k, 96)})
	}
	ovfs := ApplyUpdatesToPage(p, upds, 99, 4096)
	if len(ovfs) == 0 {
		t.Fatal("expected overflow")
	}
	if !p.FitsIn(4096) {
		t.Fatal("kept page does not fit")
	}
	total := len(p.Keys)
	lastKey := p.Keys[len(p.Keys)-1]
	for _, ovf := range ovfs {
		if !ovf.FitsIn(4096) {
			t.Fatal("overflow page does not fit")
		}
		if ovf.Keys[0] <= lastKey {
			t.Fatal("split does not preserve key order")
		}
		lastKey = ovf.Keys[len(ovf.Keys)-1]
		total += len(ovf.Keys)
	}
	if total != 46 {
		t.Fatalf("total records after split = %d, want 46", total)
	}
}

func TestApplyStreamFullMigration(t *testing.T) {
	const n = 20000
	tbl := loadTable(t, n, 2, 92)
	var upds []update.Record
	ts := int64(1)
	// Delete every 100th record, insert odd keys every 500, modify some.
	for k := uint64(2); k <= 2*n; k += 200 {
		upds = append(upds, update.Record{TS: ts, Key: k, Op: update.Delete})
		ts++
	}
	inserted := 0
	for k := uint64(501); k <= 2*n; k += 1000 {
		upds = append(upds, update.Record{TS: ts, Key: k, Op: update.Insert, Payload: body(k, 92)})
		ts++
		inserted++
	}
	// Sort by key (they were appended per-kind).
	sortRecs(upds)
	migTS := ts
	before := tbl.Rows()
	_, res, err := tbl.ApplyStream(0, migTS, update.NewSliceIterator(upds), 4<<20, 0, ^uint64(0))
	if err != nil {
		t.Fatal(err)
	}
	deleted := 0
	for k := uint64(2); k <= 2*n; k += 200 {
		deleted++
	}
	if want := before - int64(deleted) + int64(inserted); tbl.Rows() != want {
		t.Fatalf("rows after migration = %d, want %d", tbl.Rows(), want)
	}
	if res.PagesRead == 0 || res.PagesWritten == 0 {
		t.Fatalf("no page I/O recorded: %+v", res)
	}
	// Verify via scan.
	sc := tbl.NewScanner(0, 0, ^uint64(0))
	seen := make(map[uint64]bool)
	for {
		row, ok := sc.Next()
		if !ok {
			break
		}
		if row.Key%200 == 2 && row.Key != 2 {
			// deleted keys start at 2 and step 200: keys 2, 202, 402...
		}
		seen[row.Key] = true
	}
	for k := uint64(2); k <= 2*n; k += 200 {
		if seen[k] {
			t.Fatalf("deleted key %d still present", k)
		}
	}
	for k := uint64(501); k <= 2*n; k += 1000 {
		if !seen[k] {
			t.Fatalf("inserted key %d missing", k)
		}
	}
}

func TestApplyStreamIdempotent(t *testing.T) {
	tbl := loadTable(t, 1000, 2, 92)
	upds := []update.Record{
		{TS: 1, Key: 100, Op: update.Delete},
		{TS: 2, Key: 101, Op: update.Insert, Payload: body(101, 92)},
	}
	if _, _, err := tbl.ApplyStream(0, 10, update.NewSliceIterator(upds), 1<<20, 0, ^uint64(0)); err != nil {
		t.Fatal(err)
	}
	rows := tbl.Rows()
	// Re-running the same migration (crash redo) must be a no-op.
	if _, _, err := tbl.ApplyStream(0, 10, update.NewSliceIterator(upds), 1<<20, 0, ^uint64(0)); err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != rows {
		t.Fatalf("redo changed row count: %d -> %d", rows, tbl.Rows())
	}
}

func sortRecs(recs []update.Record) {
	for i := 1; i < len(recs); i++ {
		for j := i; j > 0 && update.Less(&recs[j], &recs[j-1]); j-- {
			recs[j], recs[j-1] = recs[j-1], recs[j]
		}
	}
}

func TestOverflowPagePreservesScanOrder(t *testing.T) {
	tbl := loadTable(t, 2000, 2, 92)
	// Dense inserts into a narrow key range to force splits.
	var upds []update.Record
	ts := int64(1)
	for k := uint64(101); k < 300; k += 2 {
		upds = append(upds, update.Record{TS: ts, Key: k, Op: update.Insert, Payload: body(k, 92)})
		ts++
	}
	if _, res, err := tbl.ApplyStream(0, ts, update.NewSliceIterator(upds), 1<<20, 0, ^uint64(0)); err != nil {
		t.Fatal(err)
	} else if res.OverflowPages == 0 {
		t.Fatal("expected overflow pages")
	}
	sc := tbl.NewScanner(0, 0, ^uint64(0))
	var prev uint64
	first := true
	for {
		row, ok := sc.Next()
		if !ok {
			break
		}
		if !first && row.Key <= prev {
			t.Fatalf("scan out of order after split: %d after %d", row.Key, prev)
		}
		prev = row.Key
		first = false
	}
}

func TestLoadRejectsUnsortedKeys(t *testing.T) {
	dev := sim.NewDevice(sim.Barracuda7200())
	vol, _ := storage.NewVolume(dev, 0, 1<<20)
	_, err := Load(vol, DefaultConfig(), []uint64{2, 1}, [][]byte{{1}, {2}})
	if err == nil {
		t.Fatal("unsorted load accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	dev := sim.NewDevice(sim.Barracuda7200())
	vol, _ := storage.NewVolume(dev, 0, 1<<20)
	for i, cfg := range []Config{
		{PageSize: 8, ScanIO: 1 << 20, FillFraction: 0.9},
		{PageSize: 4096, ScanIO: 1000, FillFraction: 0.9},
		{PageSize: 4096, ScanIO: 1 << 20, FillFraction: 0},
	} {
		if _, err := Load(vol, cfg, nil, nil); err == nil {
			t.Fatalf("config %d accepted: %+v", i, cfg)
		}
	}
}

func ExampleTable_NewScanner() {
	dev := sim.NewDevice(sim.Barracuda7200())
	vol, _ := storage.NewVolume(dev, 0, 1<<20)
	tbl, _ := Load(vol, DefaultConfig(),
		[]uint64{1, 2, 3}, [][]byte{[]byte("a"), []byte("b"), []byte("c")})
	sc := tbl.NewScanner(0, 2, 3)
	for {
		row, ok := sc.Next()
		if !ok {
			break
		}
		fmt.Printf("%d=%s\n", row.Key, row.Body)
	}
	// Output:
	// 2=b
	// 3=c
}

// TestScannerReusesBuffersZeroAllocs gates the scanner's steady state:
// once its read buffer and ref slice have grown to a full scan I/O, Next
// crosses batch boundaries without allocating.
func TestScannerReusesBuffersZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is meaningless under the race detector")
	}
	tbl := loadTable(t, 80000, 2, 92) // ~8.7 scan I/Os
	sc := tbl.NewScanner(0, 0, ^uint64(0))
	crossBatch := func() {
		for first := sc.curFirstKey; sc.curFirstKey == first; {
			if _, ok := sc.Next(); !ok {
				t.Fatalf("scan ended early: %v", sc.Err())
			}
		}
	}
	crossBatch()
	crossBatch()
	if n := testing.AllocsPerRun(4, crossBatch); n != 0 {
		t.Fatalf("warm Scanner.Next across a batch boundary: %v allocs, want 0", n)
	}
}

// walkRow is one row as DecodePage gives it: key, body and page stamp.
type walkRow struct {
	key  uint64
	body []byte
	ts   int64
}

// decodedRows decodes every page of tbl in key order with DecodePage and
// returns its rows in [begin, end].
func decodedRows(t *testing.T, tbl *Table, begin, end uint64) []walkRow {
	t.Helper()
	var out []walkRow
	for _, ref := range tbl.refs {
		p, _, err := tbl.ReadPageAt(0, ref.pageNo)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range p.Keys {
			if k >= begin && k <= end {
				out = append(out, walkRow{k, p.Bodies[i], p.TS})
			}
		}
	}
	return out
}

// randomPagesTable loads about 3,000 rows with random key gaps and body
// sizes (0 to 300 bytes, so pages hold from a dozen to hundreds of rows)
// under a 16 KiB scan I/O, then stamps each page with a random timestamp,
// empties one page and links one overflow page into a key gap.
func randomPagesTable(t *testing.T, rng *rand.Rand) *Table {
	t.Helper()
	vol, err := storage.NewVolume(sim.NewDevice(sim.Barracuda7200()), 0, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	var keys []uint64
	var bodies [][]byte
	for k := uint64(1 + rng.Intn(5)); len(keys) < 3000; k += uint64(1 + rng.Intn(9)) {
		keys = append(keys, k)
		bodies = append(bodies, body(k, rng.Intn(301)))
	}
	tbl, err := Load(vol, Config{PageSize: 4 << 10, ScanIO: 16 << 10, FillFraction: 0.9}, keys, bodies)
	if err != nil {
		t.Fatal(err)
	}
	for i, ref := range tbl.refs {
		p, _, err := tbl.ReadPageAt(0, ref.pageNo)
		if err != nil {
			t.Fatal(err)
		}
		p.TS = rng.Int63()
		if i == 5 {
			p.Keys, p.Bodies = nil, nil
		}
		if _, err := tbl.WritePageAt(0, ref.pageNo, p); err != nil {
			t.Fatal(err)
		}
	}
	// The overflow page goes between a page's last key and the next
	// page's first, where a split would put it.
	for i := 10; ; i++ {
		p, _, err := tbl.ReadPageAt(0, tbl.refs[i].pageNo)
		if err != nil {
			t.Fatal(err)
		}
		last := p.Keys[len(p.Keys)-1]
		if tbl.refs[i+1].firstKey-last > 3 {
			gap := &Page{TS: rng.Int63(), Keys: []uint64{last + 1, last + 2}, Bodies: [][]byte{body(last+1, 7), nil}}
			if _, err := tbl.AddOverflow(0, gap); err != nil {
				t.Fatal(err)
			}
			return tbl
		}
	}
}

// TestEachToMatchesDecode: the scanner's in-place page walk hands out
// what DecodePage decodes — keys, bodies and page timestamps — over pages
// of random sizes, an empty page, an overflow page and many scan batches,
// whatever mix of EachTo (with random bounds and early stops), Peek and
// Take, and Next drives it. A page whose used-bytes header overruns it,
// or one whose record is cut off by its end, stops the scan with an error
// through Err, after the rows before it.
func TestEachToMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tbl := randomPagesTable(t, rng)
	all := decodedRows(t, tbl, 0, ^uint64(0))
	for iter := 0; iter < 60; iter++ {
		begin, end := uint64(0), ^uint64(0)
		if iter > 0 {
			begin = all[rng.Intn(len(all))].key - uint64(rng.Intn(2))
			end = begin + uint64(rng.Intn(int(all[len(all)-1].key)))
		}
		want := decodedRows(t, tbl, begin, end)
		sc := tbl.NewScanner(0, begin, end)
		i := 0
		check := func(how string, k uint64, b []byte) {
			t.Helper()
			if i >= len(want) || k != want[i].key || !bytes.Equal(b, want[i].body) {
				t.Fatalf("[%d, %d] row %d by %s: key %d, body %d bytes; want %+v", begin, end, i, how, k, len(b), want[min(i, len(want)-1)])
			}
			i++
		}
		checkRow := func(how string, row Row) {
			t.Helper()
			if i < len(want) && row.PageTS != want[i].ts {
				t.Fatalf("[%d, %d] row %d by %s: page stamp %d, want %d", begin, end, i, how, row.PageTS, want[i].ts)
			}
			check(how, row.Key, row.Body)
		}
		for ended := false; !ended; {
			switch rng.Intn(4) {
			case 0:
				if ended = !sc.Peek(); !ended {
					if i >= len(want) || sc.Key() != want[i].key || !sc.Peek() || sc.Key() != want[i].key {
						t.Fatalf("[%d, %d] row %d: Peek found key %d", begin, end, i, sc.Key())
					}
					checkRow("Take", sc.Take())
				}
			case 1:
				row, ok := sc.Next()
				if ended = !ok; ok {
					checkRow("Next", row)
				}
			case 2:
				hi := ^uint64(0)
				if i < len(want) {
					hi = want[i].key + uint64(rng.Intn(200))
				}
				stop := int64(1 + rng.Intn(40))
				var handed, bytesHanded int64
				rows, nbytes, more := sc.EachTo(hi, func(k uint64, b []byte) bool {
					if k > hi {
						t.Fatalf("EachTo(%d) handed key %d", hi, k)
					}
					check("EachTo", k, b)
					handed, bytesHanded = handed+1, bytesHanded+int64(len(b))
					return handed != stop
				})
				if rows != handed || nbytes != bytesHanded || more != (handed != stop) {
					t.Fatalf("EachTo(%d) reported %d rows, %d bytes, more %v; handed %d rows, %d bytes, stop at %d",
						hi, rows, nbytes, more, handed, bytesHanded, stop)
				}
				if more && sc.Peek() && (sc.Key() <= hi || sc.Key() != want[i].key) {
					t.Fatalf("EachTo(%d) stopped on key %d, want the first past it, %d", hi, sc.Key(), want[i].key)
				}
			case 3:
				if sc.EachTo(0, nil); i < len(want) && (!sc.Peek() || sc.Key() != want[i].key) {
					t.Fatalf("EachTo(0, nil) peeked key %d, want %d", sc.Key(), want[i].key)
				}
			}
		}
		if i != len(want) || sc.Err() != nil {
			t.Fatalf("[%d, %d]: %d rows of %d, err %v", begin, end, i, len(want), sc.Err())
		}
		sc.Release()
	}

	for _, tc := range []struct {
		name    string
		corrupt func(page []byte)
	}{
		{"used bytes past the page", func(page []byte) { binary.LittleEndian.PutUint16(page[10:], 0xFFFF) }},
		{"last record cut off", func(page []byte) {
			_, n, _ := pageHeader(page)
			off := pageHeaderSize
			for r := 0; r < n-1; r++ {
				_, _, off = pageRecord(page, off)
			}
			binary.LittleEndian.PutUint16(page[off+8:], 0xFFFF)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tbl := loadTable(t, 3000, 2, 92)
			bad := tbl.refs[3]
			page := make([]byte, tbl.cfg.PageSize)
			if err := tbl.vol.PeekAt(page, bad.pageNo*int64(tbl.cfg.PageSize)); err != nil {
				t.Fatal(err)
			}
			good, err := DecodePage(page)
			if err != nil {
				t.Fatal(err)
			}
			tc.corrupt(page)
			if _, err := DecodePage(page); err == nil {
				t.Fatal("DecodePage took the corrupt page")
			}
			if err := tbl.vol.PokeAt(page, bad.pageNo*int64(tbl.cfg.PageSize)); err != nil {
				t.Fatal(err)
			}
			// The walk hands out every row before the bad one: the pages
			// before it and, for a cut record, the rows before it on its page.
			want := 0
			for _, ref := range tbl.refs[:3] {
				p, _, err := tbl.ReadPageAt(0, ref.pageNo)
				if err != nil {
					t.Fatal(err)
				}
				want += len(p.Keys)
			}
			if tc.name == "last record cut off" {
				want += len(good.Keys) - 1
			}
			sc := tbl.NewScanner(0, 0, ^uint64(0))
			rows, _, more := sc.EachTo(^uint64(0), func(uint64, []byte) bool { return true })
			if sc.Err() == nil || !more || rows != int64(want) || sc.Peek() {
				t.Fatalf("scan over a bad page: %d rows (want %d), err %v", rows, want, sc.Err())
			}
		})
	}
}
