package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the names live in.
type benchmarkJSON struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

// TestNamesMatchBenchmarkJSON keeps the code and BENCHMARK.json from
// drifting apart: same workloads, same metrics, same units and bounds.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", b.Paths)
	}
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the code", i, w.Name, workloadNames[i])
		}
	}
	if len(b.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the code %d", len(b.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range b.EndToEnd {
		d := endToEndMetrics[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: %+v in BENCHMARK.json, %+v in the code", i, m, d)
		}
	}
	if len(b.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the code %d", len(b.PerLayer), len(perLayerMetrics))
	}
	for i, m := range b.PerLayer {
		d := perLayerMetrics[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: %+v in BENCHMARK.json, %+v in the code", i, m, d)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for n, d := range metricByName {
		if !name.MatchString(n) || !unit.MatchString(d.unit) {
			t.Errorf("metric %q (unit %q) is outside what a name or unit may be", n, d.unit)
		}
	}
}

// TestSmoke runs every workload, untraced and traced, at a fiftieth of the
// size for one second, and asserts that each run checks out against the
// model and emits every metric its kind declares.
func TestSmoke(t *testing.T) {
	work := t.TempDir()
	masmd, err := buildMasmd(work)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			rr, err := run(runSpec{workload: w, seed: 1, seconds: 1, traced: traced, rows: 20_000,
				setups: 3, masmd: masmd, workDir: work})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !rr.correct() {
				t.Errorf("%s traced=%v: failed %d, verify_errors %d: %v", w, traced, rr.Failed, rr.VerifyErrors, rr.Violations)
			}
			if rr.Attempted < 1 {
				t.Errorf("%s traced=%v: nothing attempted", w, traced)
			}
			for _, d := range rr.defs() {
				m, ok := rr.Metrics[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v), want a number in %s", w, traced, d.name, m, ok, d.unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be zero", w, d.name, m.Value)
				}
			}
			if traced {
				var total float64
				for _, s := range rr.Shares {
					total += s.Frac
				}
				if len(rr.Shares) > 0 && math.Abs(total-1) > 1e-6 {
					t.Errorf("%s: self-time shares add up to %v, want 1", w, total)
				}
			}
		}
	}
}

// TestSpreadIsPythonsQuartiles pins spread to statistics.quantiles(v, n=4):
// for 1..10 that gives 2.75, 5.5, 8.25.
func TestSpreadIsPythonsQuartiles(t *testing.T) {
	v := []float64{7, 1, 4, 10, 2, 9, 3, 6, 5, 8}
	if got, want := spread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := spread([]float64{3}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}

// TestSelfTimesPartitionsACall checks that each instant of a client call
// goes to exactly one kind, in the order of the call's kind.
func TestSelfTimesPartitionsACall(t *testing.T) {
	spans := []span{
		{kind: kPut, conn: 0, start: 0, end: 100, units: 1},
		{kind: kWalSync, conn: -1, start: 10, end: 30},
		{kind: kDataRead, conn: -1, start: 20, end: 50}, // 20..30 already went to the sync
		{kind: kMigration, conn: -1, start: 40, end: 200},
		{kind: kVerify, conn: 1, start: 0, end: 100}, // another connection's checking
	}
	self, total := selfTimes(spans)
	want := map[spanKind]int64{kWalSync: 20, kDataRead: 20, kMigration: 50, kPut: 10}
	var sum int64
	for k, ns := range self {
		sum += ns
		if ns != want[spanKind(k)] {
			t.Errorf("%s: %d ns, want %d", kindNames[k], ns, want[spanKind(k)])
		}
	}
	if total != 100 || sum != total {
		t.Errorf("client time %d, parts add up to %d, want 100 and 100", total, sum)
	}
}

// TestModelAllowsOnlyWhatARaceExplains walks the model's verdicts: exact
// when nothing overlapped the read, lenient when a write did.
func TestModelAllowsOnlyWhatARaceExplains(t *testing.T) {
	m := newModel(8)
	var buf [bodyLen]byte
	now := m.now()
	if msg := m.checkRow(4, encodeBody(buf[:], 4, 0), true, now); msg != "" {
		t.Errorf("preloaded row rejected: %s", msg)
	}
	if msg := m.checkRow(4, nil, false, now); msg == "" {
		t.Error("a missing preloaded row was accepted")
	}
	if msg := m.checkRow(5, nil, false, now); msg != "" {
		t.Errorf("an absent odd key was rejected: %s", msg)
	}
	body := encodeBody(buf[:], 4, 0)
	body[50] ^= 1
	if msg := m.checkRow(4, body, true, now); msg == "" {
		t.Error("a corrupt row was accepted")
	}

	ver := m.begin(4) // a put in flight: old and new are both right
	if msg := m.checkRow(4, encodeBody(buf[:], 4, 0), true, m.now()); msg != "" {
		t.Errorf("old row rejected while a write is in flight: %s", msg)
	}
	if msg := m.checkRow(4, encodeBody(buf[:], 4, ver), true, m.now()); msg != "" {
		t.Errorf("new row rejected while a write is in flight: %s", msg)
	}
	before := m.now()
	m.ack(4, opPut, ver)
	if msg := m.checkRow(4, encodeBody(buf[:], 4, 0), true, before); msg != "" {
		t.Errorf("old row rejected for a read that began before the ack: %s", msg)
	}
	if msg := m.checkRow(4, encodeBody(buf[:], 4, 0), true, m.now()+1); msg == "" {
		t.Error("a stale row was accepted for a read that began after the ack")
	}
	m.ack(6, opDelete, m.begin(6))
	if msg := m.checkRow(6, encodeBody(buf[:], 6, 0), true, m.now()+1); msg == "" {
		t.Error("a deleted row was accepted")
	}
	m.ack(7, opModify, m.begin(7)) // modifying an absent row leaves it absent
	if msg := m.checkRow(7, nil, false, m.now()+1); msg != "" {
		t.Errorf("absent row rejected after a modify of nothing: %s", msg)
	}
}
