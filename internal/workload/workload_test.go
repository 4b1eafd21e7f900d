package workload

import (
	"testing"
	"testing/quick"

	"masm/internal/sim"
	"masm/internal/storage"
	"masm/internal/table"
	"masm/internal/update"
)

func TestLoadSyntheticEvenKeys(t *testing.T) {
	dev := sim.NewDevice(sim.Barracuda7200())
	vol, _ := storage.NewVolume(dev, 0, 64<<20)
	tbl, err := LoadSynthetic(vol, table.DefaultConfig(), 1000, BodySize)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != 1000 {
		t.Fatalf("rows = %d", tbl.Rows())
	}
	sc := tbl.NewScanner(0, 0, ^uint64(0))
	for {
		row, ok := sc.Next()
		if !ok {
			break
		}
		if row.Key%2 != 0 {
			t.Fatalf("odd key %d in synthetic table", row.Key)
		}
		if len(row.Body) != BodySize {
			t.Fatalf("body size %d, want %d", len(row.Body), BodySize)
		}
	}
}

func TestBodyDeterministic(t *testing.T) {
	a := Body(42, 7, 50)
	b := Body(42, 7, 50)
	c := Body(42, 8, 50)
	if string(a) != string(b) {
		t.Fatal("Body not deterministic")
	}
	if string(a) == string(c) {
		t.Fatal("Body ignores version")
	}
}

func TestUniformGenWellFormed(t *testing.T) {
	g := NewUniform(1, 10000, BodySize)
	seen := map[update.Op]int{}
	for i := 0; i < 3000; i++ {
		rec := g.Next()
		if rec.Key == 0 || rec.Key > 10000 {
			t.Fatalf("key %d out of range", rec.Key)
		}
		seen[rec.Op]++
		switch rec.Op {
		case update.Insert:
			if len(rec.Payload) != BodySize {
				t.Fatalf("insert payload %d", len(rec.Payload))
			}
		case update.Modify:
			if _, err := rec.Fields(); err != nil {
				t.Fatalf("modify fields: %v", err)
			}
		case update.Delete:
			if rec.Payload != nil {
				t.Fatal("delete with payload")
			}
		default:
			t.Fatalf("unexpected op %v", rec.Op)
		}
	}
	for _, op := range []update.Op{update.Insert, update.Delete, update.Modify} {
		if seen[op] < 500 {
			t.Fatalf("op %v seen only %d times", op, seen[op])
		}
	}
	// The encoded record size matches the paper's 100 bytes for inserts.
	rec := update.Record{Key: 1, Op: update.Insert, Payload: make([]byte, BodySize)}
	if got := update.EncodedSize(&rec); got != 100 {
		t.Fatalf("encoded insert = %d bytes, want the paper's 100", got)
	}
}

func TestZipfSkew(t *testing.T) {
	g := NewZipf(1, 1_000_000, BodySize, 1.5)
	counts := map[uint64]int{}
	for i := 0; i < 10000; i++ {
		counts[g.Next().Key]++
	}
	// Skewed: the most popular key should dominate.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 1000 {
		t.Fatalf("zipf(1.5) max key frequency %d/10000, want heavy skew", max)
	}
	// Uniform control: no key should dominate.
	u := NewUniform(1, 1_000_000, BodySize)
	counts = map[uint64]int{}
	for i := 0; i < 10000; i++ {
		counts[u.Next().Key]++
	}
	max = 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max > 10 {
		t.Fatalf("uniform max key frequency %d, want ~1", max)
	}
}

func TestRangePickerBounds(t *testing.T) {
	f := func(seed int64, maxRaw, spanRaw uint16) bool {
		maxKey := uint64(maxRaw) + 10
		span := uint64(spanRaw)%maxKey + 1
		p := NewRangePicker(seed, maxKey, span)
		for i := 0; i < 20; i++ {
			b, e := p.Next()
			if b < 1 || e > maxKey || b > e {
				return false
			}
			if e-b+1 != span && span < maxKey {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTPCHShape(t *testing.T) {
	qs := Queries()
	if len(qs) != 20 {
		t.Fatalf("%d queries, want 20 (paper ran 20, excluding q17/q20)", len(qs))
	}
	for _, q := range qs {
		if q.Name == "q17" || q.Name == "q20" {
			t.Fatalf("query %s should be excluded (did not finish in the paper)", q.Name)
		}
		if len(q.Tables) == 0 {
			t.Fatalf("query %s has no scans", q.Name)
		}
	}
	// Fractions sum to ~1.
	var sum float64
	for _, f := range tpchFractions {
		sum += f
	}
	if sum < 0.95 || sum > 1.05 {
		t.Fatalf("table fractions sum to %v", sum)
	}
}

func TestLoadTPCHProportions(t *testing.T) {
	dev := sim.NewDevice(sim.Barracuda7200())
	arena := storage.NewArena(dev)
	db, err := LoadTPCH(arena, table.DefaultConfig(), 32<<20, BodySize)
	if err != nil {
		t.Fatal(err)
	}
	if db.Rows[Lineitem] <= db.Rows[Orders] || db.Rows[Orders] <= db.Rows[Customer] {
		t.Fatalf("size order broken: L=%d O=%d C=%d",
			db.Rows[Lineitem], db.Rows[Orders], db.Rows[Customer])
	}
	// Scans work and charge time; a column-store scan is cheaper.
	endRow, err := db.ScanQuery(0, QueryPlan{Name: "t", Tables: []TPCHTable{Lineitem}}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// Chain the second measurement after the first so device queueing
	// does not pollute it.
	endCol, err := db.ScanQuery(endRow, QueryPlan{Name: "t", Tables: []TPCHTable{Lineitem}}, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if endCol-endRow >= endRow {
		t.Fatalf("column scan (%v) not cheaper than row scan (%v)", endCol-endRow, endRow)
	}
}

func TestUpdateMixTargetsBigTables(t *testing.T) {
	mix := UpdateMix()
	if mix[Lineitem] <= mix[Orders] {
		t.Fatal("lineitem should receive most updates")
	}
	var sum float64
	for _, w := range mix {
		sum += w
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("mix sums to %v", sum)
	}
}

func TestModifyOnlyGenerator(t *testing.T) {
	g := NewUniform(3, 1000, BodySize)
	gen := g.ModifyOnly()
	for i := int64(0); i < 100; i++ {
		rec := gen(i)
		if rec.Op != update.Modify {
			t.Fatalf("op %v, want modify", rec.Op)
		}
		if rec.TS != i+1 {
			t.Fatalf("ts %d, want %d", rec.TS, i+1)
		}
	}
}
