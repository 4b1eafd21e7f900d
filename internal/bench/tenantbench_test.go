package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"masm/internal/obs"
)

// TestTenantBenchSmoke runs the multi-tenant comparison at a tiny scale.
// Per-tenant attribution comes from the engines' metric registries and is
// cross-checked against the workload loop internally — an attribution
// drift fails the bench itself; this test checks the derived report and
// the -metricsout snapshot.
func TestTenantBenchSmoke(t *testing.T) {
	var buf bytes.Buffer
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "BENCH_4.json")
	metricsPath := filepath.Join(dir, "metrics.json")
	rep, err := TenantBench(&buf, jsonPath, metricsPath, 1, 3, 4000, 6000)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []TenantBenchResult{rep.Shared, rep.Private} {
		var mig, upd int64
		for i := 0; i < rep.Tenants; i++ {
			mig += r.PerTenantMigrations[tenantName(i)]
			upd += r.PerTenantUpdates[tenantName(i)]
		}
		if mig != r.Migrations {
			t.Fatalf("%s: per-tenant migrations sum %d != total %d", r.Config, mig, r.Migrations)
		}
		if upd != int64(rep.Updates) {
			t.Fatalf("%s: registry accepted %d updates, workload issued %d", r.Config, upd, rep.Updates)
		}
	}
	data, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics snapshot does not round-trip: %v", err)
	}
	var got int64
	for i := 0; i < rep.Tenants; i++ {
		got += snap.Counter("masm_updates_accepted", obs.L("table", tenantName(i)))
	}
	if got != int64(rep.Updates) {
		t.Fatalf("shared snapshot counts %d accepted updates, want %d", got, rep.Updates)
	}
}
