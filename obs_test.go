package masm

// Tests for the observability plane at engine level: the registry-backed
// metric catalog, the Prometheus/HTTP exposition, per-table series
// lifecycle across DropTable and recreation, and gauge resumption on
// recovery.

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"masm/internal/obs"
	"masm/internal/wal"
)

// TestEngineMetricsEndToEnd drives one table through writes, flushes, a
// migration and scans, then checks the registry saw all of it: counters
// advanced, gauges reconcile exactly with live state, a trace sink saw
// the lifecycle events, and the Prometheus encoding carries the series.
func TestEngineMetricsEndToEnd(t *testing.T) {
	e, err := NewEngine(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ops := make(map[string]bool)
	e.SetTraceSink(sinkFunc(func(ev obs.Event) { ops[ev.Op] = true }))
	tbl := loadTable(t, e, "orders", 400, TableOptions{})
	for i := 0; i < 300; i++ {
		if err := tbl.Insert(uint64(i)*2+1, []byte(fmt.Sprintf("upd-%d", i))); err != nil {
			t.Fatal(err)
		}
		if i == 149 || i == 299 { // two runs for the scan to merge
			if err := tbl.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	scanAll(t, tbl)
	lbl := obs.L("table", "orders")
	// A scan's own merge is counted, not only a migration's.
	snap := e.Metrics()
	if runs := snap.Gauge("masm_run_count", lbl); runs < 2 {
		t.Fatalf("setup left %d runs, want >= 2", runs)
	}
	if got := snap.Counter("masm_merge_records", lbl); got <= 0 {
		t.Fatalf("masm_merge_records = %d after a scan over two runs and no migration, want > 0", got)
	}
	if err := tbl.Migrate(); err != nil {
		t.Fatal(err)
	}

	snap = e.Metrics()
	if got := snap.Counter("masm_updates_accepted", lbl); got != 300 {
		t.Fatalf("masm_updates_accepted = %d, want 300", got)
	}
	for _, name := range []string{"masm_memtable_drains", "masm_ssd_record_writes", "masm_migrations", "masm_scans_started", "masm_merge_records"} {
		if got := snap.Counter(name, lbl); got <= 0 {
			t.Fatalf("%s = %d, want > 0", name, got)
		}
	}
	if h := snap.Histogram("masm_scan_latency_nanos", lbl); h == nil || h.Count == 0 {
		t.Fatalf("scan latency histogram empty: %+v", h)
	}
	if h := snap.Histogram("masm_migration_merge_nanos", lbl); h == nil || h.Count == 0 {
		t.Fatalf("migration merge histogram empty: %+v", h)
	}
	if err := e.CheckMetrics(); err != nil {
		t.Fatalf("metrics do not reconcile with live state: %v", err)
	}

	// The sink saw the flush and the migration.
	for _, op := range []string{"flush", "migration"} {
		if !ops[op] {
			t.Fatalf("trace sink missing %q events (have %v)", op, ops)
		}
	}

	var sb strings.Builder
	if err := obs.WritePrometheus(&sb, snap); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{`masm_updates_accepted{table="orders"} 300`, "# TYPE masm_scan_latency_nanos histogram", "masm_pool_capacity_bytes"} {
		if !strings.Contains(text, want) {
			t.Fatalf("prometheus text missing %q:\n%s", want, text)
		}
	}
}

// TestSSDBytesWrittenCountsZoneBlocks: every run ends in a zone-map block
// the SSD is written with too, so masm_ssd_bytes_written is the sum of
// Size + IndexSize over every run the log names — one-pass and two-pass —
// while masm_run_bytes, the cache-fill ledger, holds the live runs' data
// bytes only.
func TestSSDBytesWrittenCountsZoneBlocks(t *testing.T) {
	e, err := NewEngine(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tbl := loadTable(t, e, "orders", 400, TableOptions{})
	// More one-pass runs than a scan has query pages for, so the scan
	// below first merges the earliest ones into a two-pass run.
	for i := 0; i < 20*30; i++ {
		if err := tbl.Insert(uint64(i)*2+1, []byte(fmt.Sprintf("upd-%d", i))); err != nil {
			t.Fatal(err)
		}
		if i%30 == 29 {
			if err := tbl.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	scanAll(t, tbl)
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	lbl := obs.L("table", "orders")
	snap := e.Metrics()
	if snap.Counter("masm_two_pass_merges", lbl) == 0 {
		t.Fatal("setup ran no two-pass merge")
	}

	var written, blocks int64
	rep := wal.NewReplayer()
	if _, err := wal.ReadStream(e.logVol, 0, func(ent wal.Entry) error {
		if ent.Kind == wal.KindFlush || ent.Kind == wal.KindMerge {
			written += ent.Run.Size + ent.Run.IndexSize
			blocks += ent.Run.IndexSize
		}
		rep.Observe(ent)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if blocks == 0 {
		t.Fatal("the log names no zone-map block")
	}
	if got := snap.Counter("masm_ssd_bytes_written", lbl); got != written {
		t.Fatalf("masm_ssd_bytes_written = %d, the log's runs sum to %d (%d of it zone-map blocks)", got, written, blocks)
	}
	var live int64
	for _, rm := range rep.States()[tbl.ID()].Runs {
		live += rm.Size
	}
	if got := snap.Gauge("masm_run_bytes", lbl); got != live {
		t.Fatalf("masm_run_bytes = %d, the live runs hold %d data bytes", got, live)
	}
}

// TestDropTableUnregistersMetrics: per-table series must not leak across
// tenant churn. Repeated create→write→drop cycles keep the registry at a
// constant size, and a recreated table's counters start from zero instead
// of inheriting the dead tenant's totals.
func TestDropTableUnregistersMetrics(t *testing.T) {
	e, err := NewEngine(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	lbl := obs.L("table", "churn")

	var sizeAfterFirst int
	for cycle := 0; cycle < 4; cycle++ {
		tbl := loadTable(t, e, "churn", 50, TableOptions{})
		writes := 10 * (cycle + 1)
		for i := 0; i < writes; i++ {
			if err := tbl.Insert(uint64(i)*2+1, []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		if got := e.Metrics().Counter("masm_updates_accepted", lbl); got != int64(writes) {
			t.Fatalf("cycle %d: recreated table inherited stale counters: masm_updates_accepted = %d, want %d", cycle, got, writes)
		}
		if cycle == 0 {
			sizeAfterFirst = len(e.Metrics().Metrics)
		} else if got := len(e.Metrics().Metrics); got != sizeAfterFirst {
			t.Fatalf("cycle %d: registry grew from %d to %d series — per-table metrics leak across drop/recreate", cycle, sizeAfterFirst, got)
		}
		if err := e.DropTable("churn"); err != nil {
			t.Fatal(err)
		}
		if got, ok := e.Metrics().Get("masm_updates_accepted", lbl); ok {
			t.Fatalf("cycle %d: dropped table's series still registered: %+v", cycle, got)
		}
	}
}

// TestReopenedEngineResumesGauges: state gauges are volatile, but recovery
// rebuilds the state they mirror — so a clean close and reopen must come
// back with run/memtable gauges equal to what the previous process
// reported, and the rebuilt gauges must reconcile exactly.
func TestReopenedEngineResumesGauges(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenEngineDir(dir, EngineDirOptions{Config: smallCfg()})
	if err != nil {
		t.Fatal(err)
	}
	tbl := loadTable(t, e, "t", 300, TableOptions{})
	for i := 0; i < 400; i++ {
		if err := tbl.Insert(uint64(i)*2+1, []byte(fmt.Sprintf("v-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Flush(); err != nil { // materialize a run: RunBytes > 0
		t.Fatal(err)
	}
	for i := 400; i < 500; i++ { // leave a buffered tail: MemtableBytes > 0
		if err := tbl.Insert(uint64(i)*2+1, []byte(fmt.Sprintf("v-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	lbl := obs.L("table", "t")
	before := e.Metrics()
	if before.Gauge("masm_run_bytes", lbl) <= 0 || before.Gauge("masm_memtable_bytes", lbl) <= 0 {
		t.Fatalf("setup did not populate gauges: run_bytes=%d memtable_bytes=%d",
			before.Gauge("masm_run_bytes", lbl), before.Gauge("masm_memtable_bytes", lbl))
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := OpenEngineDir(dir, EngineDirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	after := e2.Metrics()
	for _, name := range []string{"masm_run_bytes", "masm_run_count", "masm_memtable_bytes"} {
		if got, want := after.Gauge(name, lbl), before.Gauge(name, lbl); got != want {
			t.Fatalf("%s after reopen = %d, want %d (gauge did not resume from recovered state)", name, got, want)
		}
	}
	if after.Gauge("masm_wal_replay_entries") <= 0 {
		t.Fatal("replay gauge empty after a reopen that had records to replay")
	}
	if err := e2.CheckMetrics(); err != nil {
		t.Fatalf("recovered gauges do not reconcile: %v", err)
	}

	// Dropped-then-recreated tables across a reopen get fresh series too.
	if err := e2.DropTable("t"); err != nil {
		t.Fatal(err)
	}
	again := loadTable(t, e2, "t", 20, TableOptions{})
	if err := again.Insert(1, []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if got := e2.Metrics().Counter("masm_updates_accepted", lbl); got != 1 {
		t.Fatalf("recreated table after reopen starts at %d accepted updates, want 1", got)
	}
}

// TestCrashReportsRecovery: an in-memory Crash and a file-backed one run the
// same recovery procedure, so both set the same recovery gauges.
func TestCrashReportsRecovery(t *testing.T) {
	open := map[string]func() (*Engine, error){
		"memory": func() (*Engine, error) { return NewEngine(smallCfg()) },
		"file": func() (*Engine, error) {
			return OpenEngineDir(t.TempDir(), EngineDirOptions{Config: smallCfg()})
		},
	}
	for name, mk := range open {
		t.Run(name, func(t *testing.T) {
			e, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			tbl := loadTable(t, e, "t", 100, TableOptions{})
			for i := 0; i < 200; i++ {
				if err := tbl.Insert(uint64(i)*2+1, []byte(fmt.Sprintf("v-%04d", i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := tbl.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := e.Sync(); err != nil {
				t.Fatal(err)
			}
			e2, err := e.Crash()
			if err != nil {
				t.Fatal(err)
			}
			defer e2.Close()
			snap := e2.Metrics()
			for _, g := range []string{"masm_wal_replay_entries", "masm_recovery_wall_nanos"} {
				if snap.Gauge(g) <= 0 {
					t.Fatalf("%s = %d after Crash, want > 0", g, snap.Gauge(g))
				}
			}
			if err := e2.CheckMetrics(); err != nil {
				t.Fatalf("recovered gauges do not reconcile: %v", err)
			}
		})
	}
}

// TestMetricsEndpoint: the opt-in HTTP endpoint serves the registry in
// Prometheus text format and expvar JSON, on a listener that dies with the
// engine.
func TestMetricsEndpoint(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenEngineDir(dir, EngineDirOptions{Config: smallCfg(), MetricsAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if e.msrv == nil {
		t.Fatal("no metrics endpoint with the MetricsAddr option set")
	}
	addr := e.msrv.Addr()
	tbl := loadTable(t, e, "t", 50, TableOptions{})
	if err := tbl.Insert(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), `masm_updates_accepted{table="t"} 1`) {
		t.Fatalf("/metrics missing live counter:\n%s", body)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("metrics endpoint still serving after engine close")
	}
}

// sinkFunc adapts a function to obs.Sink.
type sinkFunc func(obs.Event)

func (f sinkFunc) Emit(ev obs.Event) { f(ev) }
