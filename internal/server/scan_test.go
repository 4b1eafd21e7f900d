package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"masm"
)

// scanRows is how many main-data rows loadedServer bulk-loads into "t0":
// at 100-byte bodies, 33 to a 4 KiB page, about 4.7 MiB of pages, so a
// full scan spans five 1 MiB scan I/Os.
const scanRows = 40000

// batchKeys is the key distance one 1 MiB scan I/O covers in "t0": 256
// pages of 33 rows, two keys apart. The ranges below straddle its
// multiples.
const batchKeys = 256 * 33 * 2

// versionedBody is key's body at version v: every byte depends on both,
// so a body read from a recycled buffer after another row overwrote it
// cannot pass for the right one.
func versionedBody(key uint64, v int) []byte {
	b := make([]byte, 100)
	binary.LittleEndian.PutUint64(b, key)
	for i := 8; i < len(b); i++ {
		b[i] = byte(key>>uint(i%8)) ^ byte(v*31+i)
	}
	return b
}

type row struct {
	key  uint64
	body []byte
}

// loadedServer serves an engine whose table "t0" holds scanRows main-data
// rows (even keys) with cached updates over them — inserts between them,
// replacements, deletes and modifies, some still in the memtable and
// some flushed to runs — and an empty table "t1". It returns the model:
// every live key of "t0" with its body.
func loadedServer(t *testing.T) (*masm.Engine, string, map[uint64][]byte) {
	t.Helper()
	cfg := masm.DefaultConfig()
	cfg.CacheBytes = 8 << 20
	eng, err := masm.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	model := make(map[uint64][]byte, scanRows)
	keys := make([]uint64, scanRows)
	bodies := make([][]byte, scanRows)
	for i := range keys {
		keys[i] = uint64(i+1) * 2
		bodies[i] = versionedBody(keys[i], 0)
		model[keys[i]] = bodies[i]
	}
	tbl, err := eng.CreateTable("t0", masm.TableOptions{Keys: keys, Bodies: bodies})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.CreateTable("t1", masm.TableOptions{}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 6000; i++ {
		k := uint64(rng.Intn(2*scanRows + 2))
		switch body, live := model[k]; {
		case i%7 == 0 && live:
			if err := tbl.Delete(k); err != nil {
				t.Fatal(err)
			}
			delete(model, k)
		case i%5 == 0 && live:
			off, val := rng.Intn(90), versionedBody(k, i)[:8]
			if err := tbl.Modify(k, off, val); err != nil {
				t.Fatal(err)
			}
			body = append([]byte(nil), body...)
			copy(body[off:], val)
			model[k] = body
		default:
			model[k] = versionedBody(k, i)
			if err := tbl.Insert(k, model[k]); err != nil {
				t.Fatal(err)
			}
		}
	}
	_, addr := serve(t, eng, Options{})
	return eng, addr, model
}

// modelRange returns the model's rows in [lo, hi], in key order.
func modelRange(model map[uint64][]byte, lo, hi uint64) []row {
	var out []row
	for k, b := range model {
		if k >= lo && k <= hi {
			out = append(out, row{k, b})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// collect runs scan, copying each row inside the callback: the only place
// its body is valid.
func collect(scan func(fn func(uint64, []byte) bool) error) ([]row, error) {
	var out []row
	err := scan(func(k uint64, b []byte) bool {
		out = append(out, row{k, append([]byte(nil), b...)})
		return true
	})
	return out, err
}

func sameRows(got, want []row) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].key != want[i].key || !bytes.Equal(got[i].body, want[i].body) {
			return fmt.Errorf("row %d: key %d body %x, want key %d body %x",
				i, got[i].key, got[i].body, want[i].key, want[i].body)
		}
	}
	return nil
}

// TestMultiBatchScanBodies holds the body-lifetime contract across scan
// I/O boundaries: the table scanner reuses one read buffer for every
// batch and the client one recycled buffer per frame, so a row handed on
// after its buffer was refilled would carry another row's bytes. Over
// ranges that cross batch boundaries, Table.Scan, Client.Scan and the
// model must agree byte for byte.
func TestMultiBatchScanBodies(t *testing.T) {
	eng, addr, model := loadedServer(t)
	tbl, err := eng.OpenTable("t0")
	if err != nil {
		t.Fatal(err)
	}
	c := dial(t, addr)
	ranges := [][2]uint64{{0, ^uint64(0)}, {1, 2*scanRows + 1}}
	for b := uint64(1); b <= 3; b++ {
		ranges = append(ranges, [2]uint64{b*batchKeys - 3000, b*batchKeys + 3000})
	}
	for _, r := range ranges {
		lo, hi := r[0], r[1]
		want := modelRange(model, lo, hi)
		viaTable, err := collect(func(fn func(uint64, []byte) bool) error { return tbl.Scan(lo, hi, fn) })
		if err != nil {
			t.Fatal(err)
		}
		if err := sameRows(viaTable, want); err != nil {
			t.Fatalf("Table.Scan [%d,%d] vs model: %v", lo, hi, err)
		}
		viaClient, err := collect(func(fn func(uint64, []byte) bool) error { return c.Scan("t0", lo, hi, 0, fn) })
		if err != nil {
			t.Fatal(err)
		}
		if err := sameRows(viaClient, want); err != nil {
			t.Fatalf("Client.Scan [%d,%d] vs model: %v", lo, hi, err)
		}
	}
}

// TestConcurrentScansOneClient multiplexes one connection: four scans of
// different multi-frame ranges, a writer on another table, and scans that
// stop after their first row (their remaining frames drain through the
// recycled buffers undelivered). Every completed scan must equal
// Table.Scan of its range.
func TestConcurrentScansOneClient(t *testing.T) {
	eng, addr, _ := loadedServer(t)
	tbl, err := eng.OpenTable("t0")
	if err != nil {
		t.Fatal(err)
	}
	c := dial(t, addr)
	var ranges [4][2]uint64
	var want [4][]row
	for i := range ranges {
		lo := uint64(i+1)*batchKeys - 4000
		ranges[i] = [2]uint64{lo, lo + 8000} // ~4,000 rows: 16 frames
		if want[i], err = collect(func(fn func(uint64, []byte) bool) error { return tbl.Scan(lo, lo+8000, fn) }); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i, r := range ranges {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				got, err := collect(func(fn func(uint64, []byte) bool) error { return c.Scan("t0", r[0], r[1], 0, fn) })
				if err == nil {
					err = sameRows(got, want[i])
				}
				if err != nil {
					t.Errorf("scan %d [%d,%d]: %v", i, r[0], r[1], err)
					return
				}
			}
		}()
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for k := uint64(1); k <= 200; k++ {
			if err := c.Put("t1", k, versionedBody(k, 1)); err != nil {
				t.Errorf("put: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for rep := 0; rep < 3; rep++ {
			n := 0
			if err := c.Scan("t0", 0, ^uint64(0), 0, func(uint64, []byte) bool { n++; return false }); err != nil {
				t.Errorf("stopped scan: %v", err)
				return
			}
			if n != 1 {
				t.Errorf("stopped scan delivered %d rows, want 1", n)
			}
		}
	}()
	wg.Wait()
}
