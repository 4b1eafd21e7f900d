package masm

// Get(k) and Scan(k, k) are equivalent queries: whatever history led to a
// state, the two must return the same bytes, and on the simulated clock
// the dedicated lookup must not cost more than the scan it replaces (the
// equivalent-queries oracle of "Automatic Detection of Performance Bugs in
// Database Systems using Equivalent Queries", ICSE'22).

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"masm/internal/obs"
	"masm/internal/sim"
	"masm/internal/update"
)

// scanOne is the reference one-key read: a range scan of [key, key].
func scanOne(scan func(begin, end uint64, fn func(uint64, []byte) bool) error, key uint64) ([]byte, bool, error) {
	var body []byte
	n := 0
	err := scan(key, key, func(k uint64, b []byte) bool {
		if k != key {
			n = 2
			return false
		}
		body, n = append([]byte(nil), b...), n+1
		return true
	})
	if err == nil && n > 1 {
		err = fmt.Errorf("scan of [%d,%d] returned more than the one key", key, key)
	}
	return body, n == 1, err
}

// getEngines builds the engines the differential runs on: simulated
// devices in memory, and the file backend in a temporary directory.
var getEngines = []struct {
	name string
	open func(t *testing.T, cfg Config) *Engine
}{
	{"sim", func(t *testing.T, cfg Config) *Engine {
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}},
	{"filedev", func(t *testing.T, cfg Config) *Engine {
		e, err := OpenEngineDir(t.TempDir(), EngineDirOptions{Config: cfg, DataBytes: 128 << 20})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}},
}

// getChecker compares the three one-key reads on one table.
type getChecker struct {
	t     *testing.T
	e     *Engine
	tbl   *Table
	model *facadeModel
}

// check holds Get(key) and Scan(key, key) to the model and to each other,
// byte for byte. The Get goes first: the write before it left its record
// in the memtable's unsorted tail, which the scan's setup would sort.
func (c *getChecker) check(what string, key uint64) bool {
	got, ok, err := c.tbl.Get(key)
	if err != nil {
		c.t.Logf("%s: Get(%d): %v", what, key, err)
		return false
	}
	ref, refOK, err := scanOne(c.tbl.Scan, key)
	if err != nil {
		c.t.Logf("%s: Scan(%d,%d): %v", what, key, key, err)
		return false
	}
	want, wantOK := c.model.rows[key]
	if ok != refOK || !bytes.Equal(got, ref) || ok != wantOK || !bytes.Equal(got, want) {
		c.t.Logf("%s: key %d: Get (%q,%v), Scan (%q,%v), model (%q,%v)", what, key, got, ok, ref, refOK, want, wantOK)
		return false
	}
	return true
}

// checkSnapshot holds a snapshot's one-key Scan to the state the snapshot
// captured.
func (c *getChecker) checkSnapshot(what string, sn *Snapshot, state map[uint64][]byte, key uint64) bool {
	got, ok, err := scanOne(sn.Scan, key)
	if err != nil {
		c.t.Logf("%s: Snapshot.Scan(%d,%d): %v", what, key, key, err)
		return false
	}
	want, wantOK := state[key]
	if ok != wantOK || !bytes.Equal(got, want) {
		c.t.Logf("%s: key %d at snapshot: Scan (%q,%v), captured (%q,%v)", what, key, got, ok, want, wantOK)
		return false
	}
	return true
}

// checkCost compares simulated time from one state: a first scan does the
// setup work a scan may do (flush, merges) and leaves the devices where a
// read of this key leaves them; then a scan and a Get are each timed.
func (c *getChecker) checkCost(what string, key uint64) bool {
	if _, _, err := scanOne(c.tbl.Scan, key); err != nil {
		c.t.Logf("%s: %v", what, err)
		return false
	}
	timed := func(read func() error) (sim.Duration, error) {
		start := c.e.Elapsed()
		err := read()
		return c.e.Elapsed() - start, err
	}
	scanCost, err := timed(func() error { _, _, err := scanOne(c.tbl.Scan, key); return err })
	if err != nil {
		c.t.Logf("%s: %v", what, err)
		return false
	}
	getCost, err := timed(func() error { _, _, err := c.tbl.Get(key); return err })
	if err != nil {
		c.t.Logf("%s: %v", what, err)
		return false
	}
	if getCost > scanCost {
		c.t.Logf("%s: key %d: Get took %v of simulated time, Scan(k,k) %v", what, key, getCost, scanCost)
		return false
	}
	return true
}

// TestGetMatchesScan drives random histories of insert, modify and delete
// (replaces arise where a delete and a later insert combine) through
// flushes, two-pass merges (the 256 KiB cache leaves four query pages), whole
// and stepwise migrations, and holds Get and Scan(k, k) to each other, and
// a snapshot's Scan(k, k) to the state it captured, at every step: on keys just
// written (only in the memtable's unsorted tail), keys in runs, keys on
// pages only, keys absent everywhere, and one hot key whose chains of
// uncombinable updates — a reader open between every two — span
// run-index granules.
func TestGetMatchesScan(t *testing.T) {
	for _, eng := range getEngines {
		t.Run(eng.name, func(t *testing.T) {
			// What the histories were meant to exercise; each marks what it
			// reached.
			reached := map[string]bool{"masm_gets": false, "masm_get_runs_probed": false,
				"masm_get_runs_filtered": false, "masm_two_pass_merges": false, "masm_migrations": false}
			f := func(seed int64) bool { return getMatchesScan(t, eng.open, seed, reached) }
			count := 6
			if eng.name == "filedev" || testing.Short() {
				count = 3
			}
			// A fixed source: the same histories on every run.
			if err := quick.Check(f, &quick.Config{MaxCount: count, Rand: rand.New(rand.NewSource(22))}); err != nil {
				t.Fatal(err)
			}
			for name, ok := range reached {
				if !ok {
					t.Errorf("%s stayed 0 over every history: the test never got there", name)
				}
			}
		})
	}
}

func getMatchesScan(t *testing.T, open func(*testing.T, Config) *Engine, seed int64, reached map[string]bool) bool {
	rng := rand.New(rand.NewSource(seed))
	cfg := DefaultConfig()
	cfg.CacheBytes = 256 << 10
	e := open(t, cfg)
	defer e.Close()
	const n = 400
	tbl := loadTable(t, e, "t", n, TableOptions{})
	model := &facadeModel{rows: make(map[uint64][]byte, n)}
	for k := uint64(2); k <= 2*n; k += 2 {
		model.rows[k] = []byte(fmt.Sprintf("t-%06d-padding-padding-padding", k))
	}
	c := &getChecker{t: t, e: e, tbl: tbl, model: model}
	const hot = uint64(101) // odd: absent until first inserted
	what := func(i int, op string) string { return fmt.Sprintf("seed %d op %d (%s)", seed, i, op) }

	apply := func(rec update.Record) error {
		model.apply(rec)
		switch rec.Op {
		case update.Insert:
			return tbl.Insert(rec.Key, rec.Payload)
		case update.Delete:
			return tbl.Delete(rec.Key)
		default:
			f, _ := rec.Fields()
			return tbl.Modify(rec.Key, int(f[0].Off), f[0].Value)
		}
	}
	randomUpdate := func(i int, key uint64) update.Record {
		switch rng.Intn(6) {
		case 0, 1, 2:
			return update.Record{Key: key, Op: update.Insert,
				Payload: []byte(fmt.Sprintf("new-%06d-%05d-abcdefghijklmnopqrstuvwxyz", key, i))}
		case 3:
			return update.Record{Key: key, Op: update.Delete}
		default:
			return update.Record{Key: key, Op: update.Modify, Payload: update.EncodeFields(
				[]update.Field{{Off: uint16(rng.Intn(8)), Value: []byte(fmt.Sprintf("%03d", i%1000))}})}
		}
	}

	var snap *Snapshot
	var snapState map[uint64][]byte
	defer func() {
		if snap != nil {
			snap.Close()
		}
	}()
	ops := 250 + rng.Intn(150)
	for i := 0; i < ops; i++ {
		key := uint64(rng.Intn(3*n)) + 1 // a third of them beyond the loaded range
		op := "update"
		switch r := rng.Intn(40); {
		case r < 22:
			if err := apply(randomUpdate(i, key)); err != nil {
				t.Logf("%s: %v", what(i, op), err)
				return false
			}
		case r < 24:
			// A chain on the hot key that no flush or merge may combine: a
			// reader's timestamp sits between every two links. Flushed with
			// the readers still open, it lands in one run as ~60 records of
			// up to 200 bytes — several 4 KB granules of one key.
			op, key = "hot chain", hot
			var between []*Snapshot
			for j := 0; j < 60; j++ {
				rec := randomUpdate(i*100+j, hot)
				if rec.Op == update.Insert {
					rec.Payload = append(rec.Payload, bytes.Repeat([]byte{'x'}, 150)...)
				}
				err := apply(rec)
				sn, serr := tbl.Snapshot()
				if err != nil || serr != nil {
					t.Logf("%s: %v %v", what(i, op), err, serr)
					return false
				}
				between = append(between, sn)
			}
			err := tbl.Flush()
			for _, sn := range between {
				sn.Close()
			}
			if err != nil {
				t.Logf("%s: %v", what(i, op), err)
				return false
			}
		case r < 34:
			op = "flush"
			if err := tbl.Flush(); err != nil {
				t.Logf("%s: %v", what(i, op), err)
				return false
			}
		case r == 34 && snap == nil:
			op = "migrate"
			if err := tbl.Migrate(); err != nil {
				t.Logf("%s: %v", what(i, op), err)
				return false
			}
		case r == 35 && snap == nil:
			op = "migrate step"
			if _, err := tbl.MigrateStep(4 + rng.Intn(16)); err != nil {
				t.Logf("%s: %v", what(i, op), err)
				return false
			}
		case r == 36 && snap == nil:
			// A migration, then a full scan sampling its keys: every row
			// on a freshly stamped page.
			op = "migrate and scan"
			if err := tbl.Migrate(); err != nil {
				t.Logf("%s: %v", what(i, op), err)
				return false
			}
			var sampled []uint64
			if err := tbl.Scan(0, ^uint64(0), func(k uint64, _ []byte) bool {
				if len(sampled) < 8 && k%97 == 0 {
					sampled = append(sampled, k)
				}
				return true
			}); err != nil {
				t.Logf("%s: %v", what(i, op), err)
				return false
			}
			for _, k := range sampled {
				if !c.check(what(i, op), k) || !c.check(what(i, op), uint64(rng.Intn(3*n))+1) {
					return false
				}
			}
		case r >= 37:
			if snap == nil {
				op = "snapshot"
				var err error
				if snap, err = tbl.Snapshot(); err != nil {
					t.Logf("%s: %v", what(i, op), err)
					return false
				}
				snapState = model.clone()
			} else {
				op = "snapshot close"
				snap.Close()
				snap = nil
			}
		}
		for _, k := range []uint64{key, hot, uint64(rng.Intn(3*n)) + 1, 2*n + 1001} {
			if !c.check(what(i, op), k) {
				return false
			}
			if snap != nil && !c.checkSnapshot(what(i, op), snap, snapState, k) {
				return false
			}
		}
		if i%10 == 0 && !c.checkCost(what(i, op), key) {
			return false
		}
	}
	m := e.Metrics()
	for name := range reached {
		if m.Counter(name, obs.L("table", "t")) > 0 {
			reached[name] = true
		}
	}
	return true
}
