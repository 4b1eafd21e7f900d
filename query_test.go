package masm

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// queryOracle computes the expected result of a QuerySpec from a plain
// Scan: filter by the key ranges, project, apply the residual filter,
// then the limit — the naive plan the pushdown executor must match
// byte for byte.
func queryOracle(t *testing.T, tbl *Table, spec QuerySpec) []kvRow {
	t.Helper()
	var out []kvRow
	err := tbl.Scan(spec.Begin, spec.End, func(key uint64, body []byte) bool {
		if len(spec.KeyRanges) > 0 {
			hit := false
			for _, r := range spec.KeyRanges {
				if key >= r.Lo && key <= r.Hi {
					hit = true
					break
				}
			}
			if !hit {
				return true
			}
		}
		b := body
		if p := spec.Project; p != nil {
			if p.Off+p.Width <= len(b) {
				b = b[p.Off : p.Off+p.Width]
			} else {
				b = nil
			}
		}
		if spec.Filter != nil && !spec.Filter(key, b) {
			return true
		}
		out = append(out, kvRow{key, append([]byte(nil), b...)})
		return spec.Limit == 0 || int64(len(out)) < spec.Limit
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

type kvRow struct {
	key  uint64
	body []byte
}

func runQuerySpec(t *testing.T, tbl *Table, spec QuerySpec) []kvRow {
	t.Helper()
	var out []kvRow
	if err := tbl.Query(spec, func(key uint64, body []byte) bool {
		out = append(out, kvRow{key, append([]byte(nil), body...)})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func sameRows(a, b []kvRow) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].key != b[i].key || !bytes.Equal(a[i].body, b[i].body) {
			return false
		}
	}
	return true
}

// TestQueryFacadeDifferential randomizes specs — ranges, projection,
// residual filter, limit — over a mutated database and checks each
// against the scan-then-filter oracle.
func TestQueryFacadeDifferential(t *testing.T) {
	tbl := openTable(t, "", smallCfg(), evenRows(1500, paddedRow))
	defer tbl.eng.Close()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		key := uint64(rng.Intn(4000)) + 1
		switch rng.Intn(3) {
		case 0:
			if err := tbl.Insert(key, []byte(fmt.Sprintf("ins-%d-%d-padpadpadpad", key, i))); err != nil {
				t.Fatal(err)
			}
		case 1:
			if err := tbl.Delete(key); err != nil {
				t.Fatal(err)
			}
		default:
			if err := tbl.Modify(key, 0, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for probe := 0; probe < 25; probe++ {
		spec := QuerySpec{Begin: 0, End: ^uint64(0)}
		if rng.Intn(2) == 0 {
			spec.Begin = uint64(rng.Intn(3000))
			spec.End = spec.Begin + uint64(rng.Intn(3000))
		}
		for i := 0; i < rng.Intn(4); i++ {
			lo := uint64(rng.Intn(4000))
			spec.KeyRanges = append(spec.KeyRanges, KeyRange{Lo: lo, Hi: lo + uint64(rng.Intn(500))})
		}
		if rng.Intn(2) == 0 {
			spec.Project = &Projection{Off: rng.Intn(8), Width: 1 + rng.Intn(12)}
		}
		if rng.Intn(2) == 0 {
			spec.Filter = func(key uint64, body []byte) bool { return key%3 != 0 }
		}
		if rng.Intn(3) == 0 {
			spec.Limit = int64(1 + rng.Intn(50))
		}
		want := queryOracle(t, tbl, spec)
		got := runQuerySpec(t, tbl, spec)
		if !sameRows(got, want) {
			t.Fatalf("probe %d (%+v): %d rows, want %d", probe, spec, len(got), len(want))
		}
	}
}

// TestQueryFacadeEdges pins the contract edges: empty normalized
// predicate returns nothing without touching the engine, inverted bounds
// error, and early stop via fn.
func TestQueryFacadeEdges(t *testing.T) {
	tbl := openTable(t, "", smallCfg(), evenRows(200, paddedRow))
	defer tbl.eng.Close()

	if err := tbl.Query(QuerySpec{Begin: 10, End: 5}, func(uint64, []byte) bool { return true }); err == nil {
		t.Fatal("inverted bounds did not error")
	}

	// KeyRanges entirely outside [Begin, End] normalize to empty: no rows,
	// no error.
	n := 0
	err := tbl.Query(QuerySpec{Begin: 0, End: ^uint64(0), KeyRanges: []KeyRange{{Lo: 9, Hi: 5}}},
		func(uint64, []byte) bool { n++; return true })
	if err != nil || n != 0 {
		t.Fatalf("empty predicate: n=%d err=%v", n, err)
	}

	// fn returning false stops the stream.
	n = 0
	if err := tbl.Query(QuerySpec{Begin: 0, End: ^uint64(0)}, func(uint64, []byte) bool {
		n++
		return n < 5
	}); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("early stop delivered %d rows, want 5", n)
	}
}
