package masm

// Property-based testing at the facade level, extending the per-package
// quick_test.go pattern to the top-level masm package: randomized
// Insert/Delete/Modify/Scan/Flush/Migrate/MigrateStep/Snapshot sequences
// are cross-checked against a reference model that applies the identical
// update.Record semantics to a plain map.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"masm/internal/update"
)

// facadeModel mirrors a table with a map, applying the same update records.
type facadeModel struct {
	rows map[uint64][]byte
}

func (m *facadeModel) apply(rec update.Record) {
	old, ok := m.rows[rec.Key]
	nb, exists := update.Apply(old, ok, &rec)
	if exists {
		m.rows[rec.Key] = nb
	} else {
		delete(m.rows, rec.Key)
	}
}

func (m *facadeModel) clone() map[uint64][]byte {
	c := make(map[uint64][]byte, len(m.rows))
	for k, v := range m.rows {
		c[k] = v
	}
	return c
}

// diffScan collects a full scan and compares it against a model state.
func diffScan(scan func(func(uint64, []byte) bool) error, want map[uint64][]byte) error {
	got := make(map[uint64][]byte)
	var prev uint64
	first := true
	orderErr := error(nil)
	if err := scan(func(key uint64, body []byte) bool {
		if !first && key <= prev {
			orderErr = fmt.Errorf("keys not increasing: %d after %d", key, prev)
			return false
		}
		prev, first = key, false
		got[key] = append([]byte(nil), body...)
		return true
	}); err != nil {
		return err
	}
	if orderErr != nil {
		return orderErr
	}
	if len(got) != len(want) {
		return fmt.Errorf("scan returned %d rows, model has %d", len(got), len(want))
	}
	for k, v := range want {
		if !bytes.Equal(got[k], v) {
			return fmt.Errorf("key %d: got %q, want %q", k, got[k], v)
		}
	}
	return nil
}

// TestQuickFacadeModelEquivalence: any randomized operation sequence
// leaves the table scan-equivalent to the model, and every snapshot taken
// along the way keeps returning the model state at its capture point even
// as later operations (including migrations attempted around it) proceed.
func TestQuickFacadeModelEquivalence(t *testing.T) {
	f := func(seed int64, nRaw uint16, disableLog bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%500) + 50
		rows := evenRows(n, "row-%06d-abcdefghijklmnopqrstuv")
		model := &facadeModel{rows: make(map[uint64][]byte, n)}
		for i, k := range rows.Keys {
			model.rows[k] = rows.Bodies[i]
		}
		cfg := DefaultConfig()
		cfg.CacheBytes = 1 << 20
		cfg.DisableRedoLog = disableLog
		tbl := openTable(t, "", cfg, rows)
		defer tbl.eng.Close()

		// One long-lived snapshot checked at the end against the state it
		// captured.
		var pinned *Snapshot
		var pinnedState map[uint64][]byte

		ops := 150 + rng.Intn(150)
		for i := 0; i < ops; i++ {
			key := uint64(rng.Intn(3*n)) + 1
			switch rng.Intn(12) {
			case 0, 1, 2:
				rec := update.Record{Key: key, Op: update.Insert,
					Payload: []byte(fmt.Sprintf("new-%06d-%04d-abcdefghijklmnop", key, i))}
				if err := tbl.Insert(key, rec.Payload); err != nil {
					t.Log(err)
					return false
				}
				model.apply(rec)
			case 3, 4:
				if err := tbl.Delete(key); err != nil {
					t.Log(err)
					return false
				}
				model.apply(update.Record{Key: key, Op: update.Delete})
			case 5, 6:
				val := []byte(fmt.Sprintf("%03d", i%1000))
				off := rng.Intn(8)
				if err := tbl.Modify(key, off, val); err != nil {
					t.Log(err)
					return false
				}
				model.apply(update.Record{Key: key, Op: update.Modify,
					Payload: update.EncodeFields([]update.Field{{Off: uint16(off), Value: val}})})
			case 7:
				if err := tbl.Flush(); err != nil {
					t.Log(err)
					return false
				}
			case 8:
				if pinned == nil { // migration would block on the snapshot
					if err := tbl.Migrate(); err != nil {
						t.Log(err)
						return false
					}
				}
			case 9:
				if pinned == nil {
					if _, err := tbl.MigrateStep(8 + rng.Intn(32)); err != nil {
						t.Log(err)
						return false
					}
				}
			case 10:
				lo := uint64(rng.Intn(2 * n))
				hi := lo + uint64(rng.Intn(2*n))
				sub := make(map[uint64][]byte)
				for k, v := range model.rows {
					if k >= lo && k <= hi {
						sub[k] = v
					}
				}
				if err := diffScan(func(fn func(uint64, []byte) bool) error {
					return tbl.Scan(lo, hi, fn)
				}, sub); err != nil {
					t.Logf("seed %d op %d: range scan: %v", seed, i, err)
					return false
				}
			case 11:
				if pinned == nil && rng.Intn(2) == 0 {
					var err error
					pinned, err = tbl.Snapshot()
					if err != nil {
						t.Log(err)
						return false
					}
					pinnedState = model.clone()
				}
			}
		}

		if pinned != nil {
			if err := diffScan(func(fn func(uint64, []byte) bool) error {
				return pinned.Scan(0, ^uint64(0), fn)
			}, pinnedState); err != nil {
				t.Logf("seed %d: pinned snapshot diverged: %v", seed, err)
				return false
			}
			pinned.Close()
		}
		if err := diffScan(func(fn func(uint64, []byte) bool) error {
			return tbl.Scan(0, ^uint64(0), fn)
		}, model.rows); err != nil {
			t.Logf("seed %d: final scan: %v", seed, err)
			return false
		}
		// After closing the snapshot a full migration must go through and
		// preserve the state.
		if err := tbl.Migrate(); err != nil {
			t.Log(err)
			return false
		}
		if err := diffScan(func(fn func(uint64, []byte) bool) error {
			return tbl.Scan(0, ^uint64(0), fn)
		}, model.rows); err != nil {
			t.Logf("seed %d: post-migration scan: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
