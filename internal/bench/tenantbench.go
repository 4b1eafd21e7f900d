package bench

// The multi-tenant shared-cache benchmark behind BENCH_4.json: the
// paper's §5 argument, measured. One SSD update cache serving N tables
// with skewed per-tenant load is compared against the same SSD statically
// partitioned into N private caches (each tenant gets capacity/N). With
// skew, the shared pool lets hot tenants borrow the space idle tenants
// are not using, so the hot tenant migrates far less often and the whole
// catalog sustains a higher update rate on identical hardware; the static
// partition burns disk time on premature migrations of the hot tenant
// while most of the SSD sits idle.
//
// Both configurations run on the simulated devices, so the results are
// machine-independent virtual-time measurements (like the paper
// experiments), not host wall-clock.

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"

	"masm"
	"masm/internal/obs"
	"masm/internal/sim"
)

// TenantBenchResult is one configuration's outcome.
type TenantBenchResult struct {
	Config string `json:"config"` // "shared" or "private"
	// UpdatesPerSec is the sustained update rate in simulated time,
	// migrations included.
	UpdatesPerSec float64 `json:"updates_per_sec"`
	ElapsedSimSec float64 `json:"elapsed_sim_sec"`
	Migrations    int64   `json:"migrations"`
	// PeakCachedBytes is the high-water mark of update bytes held across
	// all tenants, and SSDFootprintBytes the physical SSD provisioned to
	// hold them (the over-provisioned volume capacity).
	PeakCachedBytes   int64 `json:"peak_cached_bytes"`
	SSDFootprintBytes int64 `json:"ssd_footprint_bytes"`
	SSDBytesWritten   int64 `json:"ssd_bytes_written"`
	// PerTenantMigrations shows where the migration pressure landed. It is
	// read from the engines' metric registries (masm_migrations per table
	// label), not counted bench-side, and cross-checked against the
	// workload loop's own tally.
	PerTenantMigrations map[string]int64 `json:"per_tenant_migrations"`
	// PerTenantUpdates comes from the registry's masm_updates_accepted
	// series, and PerTenantMergeP99Nanos from each tenant's virtual-time
	// masm_migration_merge_nanos histogram — hot tenants show longer merge
	// phases under the private split, where they migrate early and often.
	PerTenantUpdates       map[string]int64 `json:"per_tenant_updates"`
	PerTenantMergeP99Nanos map[string]int64 `json:"per_tenant_merge_p99_nanos"`
}

// TenantBenchReport is the machine-readable BENCH_4.json payload.
type TenantBenchReport struct {
	Bench        string            `json:"bench"`
	Tenants      int               `json:"tenants"`
	RowsPerTable int               `json:"rows_per_table"`
	Updates      int               `json:"updates"`
	Skew         float64           `json:"skew"`
	CacheBytes   int64             `json:"cache_bytes"`
	Seed         int64             `json:"seed"`
	Shared       TenantBenchResult `json:"shared"`
	Private      TenantBenchResult `json:"private"`
	// SpeedupSharedOverPrivate is the sustained-rate ratio.
	SpeedupSharedOverPrivate float64 `json:"speedup_shared_over_private"`
}

// tenantName names tenant i's table.
func tenantName(i int) string { return fmt.Sprintf("tenant-%d", i) }

// tenantLoad builds the skewed tenant-selection sequence: tenant 0 is the
// hottest, following a Zipf-like share, so a shared cache has real slack
// to reassign.
func tenantLoad(rng *rand.Rand, tenants, updates int, skew float64) []int {
	z := rand.NewZipf(rng, skew, 1, uint64(tenants-1))
	seq := make([]int, updates)
	for i := range seq {
		seq[i] = int(z.Uint64())
	}
	return seq
}

// runTenantWorkload drives one update sequence through the tenants,
// invoking the configuration's migration policy inline after every update
// (the virtual timeline has no background threads), and reports the
// simulated completion time, total migrations and the cached-bytes
// high-water mark. relieve migrates if the configuration's pressure rule
// says so. Per-tenant attribution is NOT tallied here — it is read from
// the engines' metric registries afterwards; the total returned here
// cross-checks them.
func runTenantWorkload(tenants []*masm.Table, elapsed func() sim.Duration,
	relieve func(justWrote int) (bool, error),
	seq []int, rows int, seed int64) (sim.Duration, int64, int64, error) {

	rng := rand.New(rand.NewSource(seed))
	var migrations int64
	var peak int64
	val := []byte("qty=42 price=0123")
	for n, ti := range seq {
		t := tenants[ti]
		// In-place field modifications of existing rows: the paper's
		// steady-state warehouse maintenance stream. (Inserts would grow
		// the tables and make later migrations incomparably priced
		// between the two configurations.)
		key := uint64(rng.Intn(rows)+1) * 2
		if err := t.Modify(key, 17, val); err != nil {
			return 0, 0, 0, fmt.Errorf("tenant %d update %d: %w", ti, n, err)
		}
		ran, err := relieve(ti)
		if err != nil {
			return 0, 0, 0, err
		}
		if ran {
			migrations++
		}
		if n%256 == 0 {
			var cached int64
			for _, tt := range tenants {
				cached += tt.Stats().CachedBytes
			}
			if cached > peak {
				peak = cached
			}
		}
	}
	return elapsed(), migrations, peak, nil
}

// tenantSeries extracts one tenant's registry-sourced series from a
// snapshot: migrations, accepted updates, and the virtual-time p99 of the
// migration merge phase. lbl carries the per-table label under which the
// engine registered the tenant's store.
func tenantSeries(snap obs.Snapshot, lbl obs.Label) (mig, upd, mergeP99 int64) {
	mig = snap.Counter("masm_migrations", lbl)
	upd = snap.Counter("masm_updates_accepted", lbl)
	if h := snap.Histogram("masm_migration_merge_nanos", lbl); h != nil {
		mergeP99 = h.Quantile(0.99)
	}
	return mig, upd, mergeP99
}

// TenantBench runs the shared-vs-private comparison and renders the
// report (and BENCH_4.json when jsonPath is non-empty). When metricsPath
// is non-empty the shared engine's final metrics snapshot is written there
// as JSON.
func TenantBench(w io.Writer, jsonPath, metricsPath string, seed int64, tenants, rows, updates int) (*TenantBenchReport, error) {
	if tenants < 2 {
		return nil, fmt.Errorf("tenantbench: need at least 2 tenants, have %d", tenants)
	}
	const skew = 1.4
	cacheBytes := int64(tenants) * (1 << 20) // 1 MB of shared SSD per tenant
	bodies := make([][]byte, 64)
	for i := range bodies {
		bodies[i] = []byte(fmt.Sprintf("tenant-row-%04d: qty=01 price=0099 status=SHIPPED", i))
	}
	loadKeys := make([]uint64, rows)
	loadBodies := make([][]byte, rows)
	for i := range loadKeys {
		loadKeys[i] = uint64(i+1) * 2
		loadBodies[i] = bodies[i%len(bodies)]
	}
	seq := tenantLoad(rand.New(rand.NewSource(seed)), tenants, updates, skew)

	report := &TenantBenchReport{
		Bench:        "tenantbench",
		Tenants:      tenants,
		RowsPerTable: rows,
		Updates:      updates,
		Skew:         skew,
		CacheBytes:   cacheBytes,
		Seed:         seed,
	}

	// Shared: one engine, one SSD cache; every tenant may use the whole
	// pool (the byte-budget allocator and fill-pressure migration keep it
	// honest).
	cfg := masm.DefaultConfig()
	cfg.CacheBytes = cacheBytes
	cfg.DisableRedoLog = true // both configs: measure the cache, not the log
	eng, err := masm.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	sharedTenants := make([]*masm.Table, tenants)
	for i := 0; i < tenants; i++ {
		t, err := eng.CreateTable(tenantName(i), masm.TableOptions{Keys: loadKeys, Bodies: loadBodies})
		if err != nil {
			return nil, err
		}
		sharedTenants[i] = t
	}
	sharedRelieve := func(int) (bool, error) {
		_, ran, err := eng.MigrateIfPressured()
		return ran, err
	}
	el, mig, peak, err := runTenantWorkload(sharedTenants, eng.Elapsed, sharedRelieve, seq, rows, seed+1)
	if err != nil {
		return nil, fmt.Errorf("shared config: %w", err)
	}
	est := eng.Stats()
	sharedSnap := eng.Metrics()
	per, perUpd, perP99 := make(map[string]int64), make(map[string]int64), make(map[string]int64)
	var regMig int64
	for i := 0; i < tenants; i++ {
		name := tenantName(i)
		m, u, p99 := tenantSeries(sharedSnap, obs.L("table", name))
		per[name], perUpd[name], perP99[name] = m, u, p99
		regMig += m
	}
	if regMig != mig {
		return nil, fmt.Errorf("shared config: registry counted %d migrations, workload loop %d", regMig, mig)
	}
	report.Shared = TenantBenchResult{
		Config:                 "shared",
		UpdatesPerSec:          float64(updates) / el.Seconds(),
		ElapsedSimSec:          el.Seconds(),
		Migrations:             mig,
		PeakCachedBytes:        peak,
		SSDFootprintBytes:      cacheBytes * 2,
		SSDBytesWritten:        est.SSDBytesWritten,
		PerTenantMigrations:    per,
		PerTenantUpdates:       perUpd,
		PerTenantMergeP99Nanos: perP99,
	}
	eng.Close()

	// Private: the same SSD statically split into per-tenant caches of
	// capacity/N, each tenant a one-table engine on its own devices (a
	// dedicated slice of hardware, as a per-object deployment would be).
	privTenants := make([]*masm.Table, tenants)
	privEngines := make([]*masm.Engine, tenants)
	pcfg := cfg
	pcfg.CacheBytes = cacheBytes / int64(tenants)
	for i := 0; i < tenants; i++ {
		e, err := masm.NewEngine(pcfg)
		if err != nil {
			return nil, err
		}
		t, err := e.CreateTable(tenantName(i), masm.TableOptions{Keys: loadKeys, Bodies: loadBodies})
		if err != nil {
			return nil, err
		}
		privEngines[i], privTenants[i] = e, t
	}
	privElapsed := func() sim.Duration {
		// Tenants run on private hardware in parallel; the sustained rate
		// is bounded by the slowest (hottest) tenant's timeline.
		var max sim.Duration
		for _, e := range privEngines {
			if d := e.Elapsed(); d > max {
				max = d
			}
		}
		return max
	}
	privRelieve := func(justWrote int) (bool, error) {
		_, ran, err := privEngines[justWrote].MigrateIfPressured()
		return ran, err
	}
	el2, mig2, peak2, err := runTenantWorkload(privTenants, privElapsed, privRelieve, seq, rows, seed+1)
	if err != nil {
		return nil, fmt.Errorf("private config: %w", err)
	}
	var privWritten, regMig2 int64
	per2, perUpd2, perP992 := make(map[string]int64), make(map[string]int64), make(map[string]int64)
	for i, e := range privEngines {
		privWritten += e.Stats().SSDBytesWritten
		name := tenantName(i)
		m, u, p99 := tenantSeries(e.Metrics(), obs.L("table", name))
		per2[name], perUpd2[name], perP992[name] = m, u, p99
		regMig2 += m
		e.Close()
	}
	if regMig2 != mig2 {
		return nil, fmt.Errorf("private config: registries counted %d migrations, workload loop %d", regMig2, mig2)
	}
	report.Private = TenantBenchResult{
		Config:                 "private",
		UpdatesPerSec:          float64(updates) / el2.Seconds(),
		ElapsedSimSec:          el2.Seconds(),
		Migrations:             mig2,
		PeakCachedBytes:        peak2,
		SSDFootprintBytes:      cacheBytes * 2,
		SSDBytesWritten:        privWritten,
		PerTenantMigrations:    per2,
		PerTenantUpdates:       perUpd2,
		PerTenantMergeP99Nanos: perP992,
	}
	report.SpeedupSharedOverPrivate = report.Shared.UpdatesPerSec / report.Private.UpdatesPerSec

	fmt.Fprintf(w, "tenantbench: %d tenants, zipf %.1f load skew, %d updates, %d MB total SSD cache\n",
		tenants, skew, updates, cacheBytes>>20)
	fmt.Fprintf(w, "%-10s %14s %12s %12s %14s\n", "config", "upd/s (sim)", "sim time", "migrations", "peak cached")
	for _, r := range []TenantBenchResult{report.Shared, report.Private} {
		fmt.Fprintf(w, "%-10s %14.0f %11.2fs %12d %13dK\n",
			r.Config, r.UpdatesPerSec, r.ElapsedSimSec, r.Migrations, r.PeakCachedBytes>>10)
	}
	fmt.Fprintf(w, "shared-cache speedup over static partition: %.2fx\n", report.SpeedupSharedOverPrivate)
	fmt.Fprintf(w, "hot-tenant migrations: shared %d, private %d\n",
		report.Shared.PerTenantMigrations[tenantName(0)], report.Private.PerTenantMigrations[tenantName(0)])

	if jsonPath != "" {
		js, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(jsonPath, append(js, '\n'), 0o644); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "wrote %s\n", jsonPath)
	}
	if metricsPath != "" {
		js, err := json.MarshalIndent(sharedSnap, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(metricsPath, append(js, '\n'), 0o644); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "wrote %s\n", metricsPath)
	}
	return report, nil
}
