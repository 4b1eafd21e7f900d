package query

import (
	"errors"
	"fmt"
	"testing"

	"masm/internal/update"
)

// fromRows is a single-use Iterator over rows (not copied).
func fromRows(rows []Row) Iterator {
	i := 0
	return Func(func() (Row, bool, error) {
		if i >= len(rows) {
			return Row{}, false, nil
		}
		r := rows[i]
		i++
		return r, true, nil
	})
}

func rowsN(n int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{Key: uint64(i) * 2, TS: int64(i), Body: []byte(fmt.Sprintf("body-%04d", i))}
	}
	return rows
}

func drain(t *testing.T, it Iterator) []Row {
	t.Helper()
	var out []Row
	for {
		r, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		r.Body = append([]byte(nil), r.Body...)
		out = append(out, r)
	}
}

func TestFilterKeyTSPayload(t *testing.T) {
	pred := update.NewPred([]update.KeyRange{{Lo: 4, Hi: 10}, {Lo: 30, Hi: 40}})
	it := NewFilter(fromRows(rowsN(30)), func(r *Row) bool {
		return pred.Match(r.Key) && r.TS <= 17 && len(r.Body) > 5
	})
	got := drain(t, it)
	var want []uint64
	for _, r := range rowsN(30) {
		if pred.Match(r.Key) && r.TS <= 17 {
			want = append(want, r.Key)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("filter kept %d rows, want %d", len(got), len(want))
	}
	for i, r := range got {
		if r.Key != want[i] {
			t.Fatalf("row %d: key %d, want %d", i, r.Key, want[i])
		}
	}
}

func TestProjectReslicesAndClips(t *testing.T) {
	rows := []Row{
		{Key: 1, Body: []byte("0123456789")},
		{Key: 2, Body: []byte("01")}, // too short: projects to empty
	}
	it := NewProject(fromRows(rows), 3, 4)
	got := drain(t, it)
	if string(got[0].Body) != "3456" {
		t.Fatalf("projected body %q, want %q", got[0].Body, "3456")
	}
	if len(got[1].Body) != 0 {
		t.Fatalf("short body projected to %q, want empty", got[1].Body)
	}
}

func TestLimit(t *testing.T) {
	if got := drain(t, NewLimit(fromRows(rowsN(100)), 7)); len(got) != 7 {
		t.Fatalf("limit 7 yielded %d rows", len(got))
	}
	if got := drain(t, NewLimit(fromRows(rowsN(3)), 7)); len(got) != 3 {
		t.Fatalf("limit past end yielded %d rows", len(got))
	}
	if got := drain(t, NewLimit(fromRows(rowsN(3)), 0)); len(got) != 0 {
		t.Fatalf("limit 0 yielded %d rows", len(got))
	}
}

func TestErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	src := Func(func() (Row, bool, error) { return Row{}, false, boom })
	if _, _, err := NewFilter(src, func(*Row) bool { return true }).Next(); !errors.Is(err, boom) {
		t.Fatalf("filter error = %v", err)
	}
	if _, _, err := NewProject(Func(func() (Row, bool, error) { return Row{}, false, boom }), 0, 1).Next(); !errors.Is(err, boom) {
		t.Fatalf("project error = %v", err)
	}
}

// TestOperatorZeroAllocs gates the executor hot path: a composed
// filter→project→limit pipeline must not allocate per row. (PR 3/PR 7
// convention: skipped under the race detector.)
func TestOperatorZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is meaningless under the race detector")
	}
	rows := rowsN(1 << 12)
	pred := update.NewPred([]update.KeyRange{{Lo: 0, Hi: 1 << 20}})
	keep := func(r *Row) bool { return pred.Match(r.Key) && r.TS <= 1<<40 }

	t.Run("pipeline", func(t *testing.T) {
		var it Iterator
		pos := 0
		src := Func(func() (Row, bool, error) {
			if pos >= len(rows) {
				pos = 0 // wrap so AllocsPerRun never hits end-of-stream
			}
			r := rows[pos]
			pos++
			return r, true, nil
		})
		it = NewLimit(NewProject(NewFilter(src, keep), 2, 4), 1<<40)
		avg := testing.AllocsPerRun(10000, func() {
			if _, ok, err := it.Next(); !ok || err != nil {
				t.Fatal("pipeline ended early")
			}
		})
		if avg != 0 {
			t.Fatalf("pipeline Next allocates %.1f per row, want 0", avg)
		}
	})
}

// Func adapts a closure to Iterator.
type Func func() (Row, bool, error)

// Next implements Iterator.
func (f Func) Next() (Row, bool, error) { return f() }
