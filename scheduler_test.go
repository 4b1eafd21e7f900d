package masm

import (
	"errors"
	"testing"
	"time"
)

// migrationFailures reads the scheduler's failure counter from e's registry.
func migrationFailures(e *Engine) int64 { return e.Metrics().Counter("masm_migration_failures") }

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestMigrationSchedulerTriggers: filling the cache past the threshold
// makes the background scheduler migrate without any explicit Migrate
// call from the update path.
func TestMigrationSchedulerTriggers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheBytes = 1 << 20
	cfg.MigrateThreshold = 0.05
	tbl := openTable(t, "", cfg, evenRows(1000, stressRow))
	defer tbl.eng.Close()
	ms, err := tbl.eng.StartMigrationScheduler(time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		key := uint64(i%3000) + 1
		if err := tbl.Insert(key, stressBody(key, i)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "background migration", func() bool { return ms.Migrations() >= 1 })
	if n := migrationFailures(tbl.eng); n != 0 {
		t.Fatalf("%d migrations failed", n)
	}
	st := tbl.Stats()
	if st.Migrations < 1 {
		t.Fatalf("stats report %d migrations", st.Migrations)
	}
}

// TestCommitsKickScheduler: a commit that finds its table's cache at the
// migration threshold, but under AdmitFill, kicks the scheduler as a Table
// write does. With the ticker an hour away, the kick is the only way the
// migration can start.
func TestCommitsKickScheduler(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheBytes = 1 << 20
	cfg.MigrateThreshold = 0.05
	tbl := openTable(t, "", cfg, evenRows(1000, stressRow))
	defer tbl.eng.Close()
	e := tbl.eng
	ms, err := e.StartMigrationScheduler(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	commit := func(i int) {
		t.Helper()
		tx, err := e.BeginTx(TxSnapshot)
		if err != nil {
			t.Fatal(err)
		}
		key := uint64(i%3000) + 1
		if err := tx.Insert(testTable, key, stressBody(key, i)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	for ; tbl.CacheFill() < cfg.MigrateThreshold; i++ {
		commit(i)
	}
	commit(i)
	if fill := tbl.CacheFill(); fill >= AdmitFill {
		t.Fatalf("fill %.3f reached AdmitFill: admission, not the kick, would migrate", fill)
	}
	waitFor(t, "a migration kicked by a commit", func() bool { return ms.Migrations() >= 1 })
}

// TestMigrationSchedulerRetriesAfterFailure: a transient migration failure
// counts in masm_migration_failures, and once the fault heals the
// scheduler's next sweeps migrate.
func TestMigrationSchedulerRetriesAfterFailure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheBytes = 1 << 20
	cfg.MigrateThreshold = 0.05
	tbl := openTable(t, "", cfg, evenRows(1000, stressRow))
	defer tbl.eng.Close()

	boom := errors.New("injected: redo device full")
	tbl.store.FailMigrations(boom)
	ms, err := tbl.eng.StartMigrationScheduler(time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		key := uint64(i%3000) + 1
		if err := tbl.Insert(key, stressBody(key, i)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "scheduler to count the injected failure", func() bool {
		return migrationFailures(tbl.eng) >= 1
	})
	if ms.Migrations() != 0 {
		t.Fatalf("%d migrations ran despite the failpoint", ms.Migrations())
	}

	// The fault heals; a later sweep migrates.
	tbl.store.FailMigrations(nil)
	ms.Kick()
	waitFor(t, "background migration after recovery", func() bool { return ms.Migrations() >= 1 })
}

// pressureTwo loads tables a and b on a fresh engine and writes both past
// the migration threshold, with no scheduler running.
func pressureTwo(t *testing.T) (e *Engine, a, b *Table) {
	t.Helper()
	cfg := smallCfg()
	cfg.MigrateThreshold = 0.05
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	opts := TableOptions{CacheBytes: 1 << 20}
	a = loadTable(t, e, "a", 500, opts)
	b = loadTable(t, e, "b", 500, opts)
	for i := 0; i < 2000; i++ {
		key := uint64(i%3000) + 1
		if err := a.Insert(key, stressBody(key, i)); err != nil {
			t.Fatal(err)
		}
		if err := b.Insert(key, stressBody(key, i)); err != nil {
			t.Fatal(err)
		}
	}
	if a.CacheFill() < cfg.MigrateThreshold || b.CacheFill() < cfg.MigrateThreshold {
		t.Fatalf("setup did not pressure both tables: a=%.3f b=%.3f", a.CacheFill(), b.CacheFill())
	}
	return e, a, b
}

// TestMigrationSchedulerCountsFailures: with one of two pressured tables
// unable to migrate, one sweep of a running scheduler counts the failure
// in masm_migration_failures, the series /metrics exports, and still
// migrates the healthy table.
func TestMigrationSchedulerCountsFailures(t *testing.T) {
	e, a, _ := pressureTwo(t)
	a.store.FailMigrations(errors.New("injected: table a cannot migrate"))
	// The ticker is an hour away: the one kick below is the one sweep.
	ms, err := e.StartMigrationScheduler(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	swept := ms.nextSweep()
	ms.Kick()
	select {
	case <-swept:
	case <-time.After(10 * time.Second):
		t.Fatal("no sweep ended after a kick")
	}
	if n := migrationFailures(e); n != 1 {
		t.Fatalf("masm_migration_failures = %d after one sweep with one failing table, want 1", n)
	}
	if got := ms.TableMigrations(); got["b"] == 0 || got["a"] != 0 {
		t.Fatalf("per-table migrations %v: want b migrated in the sweep where a failed", got)
	}
}

// TestMigrationSchedulerSweepContinuesPastFailure: one table with a broken
// migration path must not starve the rest of the round. Both tables are
// pressured; table a's migration fails; a single deterministic sweep must
// still migrate table b and count the failure, and — once a heals — the
// next sweep migrates a and counts nothing.
func TestMigrationSchedulerSweepContinuesPastFailure(t *testing.T) {
	e, a, _ := pressureTwo(t)
	a.store.FailMigrations(errors.New("injected: table a cannot migrate"))
	// Drive sweeps directly — no goroutine, no ticks — so "same round" is
	// literal, not a property of retry timing.
	ms := &MigrationScheduler{eng: e, byTable: make(map[string]int64),
		failures: e.reg.Counter("masm_migration_failures")}
	if !ms.sweep() {
		t.Fatal("sweep reported engine closed")
	}
	got := ms.TableMigrations()
	if got["b"] == 0 {
		t.Fatalf("table b did not migrate in the round where a failed: %v", got)
	}
	if got["a"] != 0 {
		t.Fatalf("table a migrated despite the failpoint: %v", got)
	}
	if n := migrationFailures(e); n != 1 {
		t.Fatalf("masm_migration_failures = %d, want the one injected failure", n)
	}

	a.store.FailMigrations(nil)
	if !ms.sweep() {
		t.Fatal("sweep reported engine closed")
	}
	if n := migrationFailures(e); n != 1 {
		t.Fatalf("masm_migration_failures = %d after a clean sweep, want still 1", n)
	}
	if got := ms.TableMigrations(); got["a"] == 0 {
		t.Fatalf("table a never migrated after recovery: %v", got)
	}
}

// TestMigrationSchedulerStartStop: double Start returns the same
// scheduler, Stop is idempotent, and Close both stops the scheduler and
// stays idempotent itself.
func TestMigrationSchedulerStartStop(t *testing.T) {
	tbl := openTable(t, "", DefaultConfig(), evenRows(200, stressRow))
	ms1, err := tbl.eng.StartMigrationScheduler(0)
	if err != nil {
		t.Fatal(err)
	}
	ms2, err := tbl.eng.StartMigrationScheduler(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ms1 != ms2 {
		t.Fatal("second Start created a second scheduler")
	}
	ms1.Stop()
	ms1.Stop() // idempotent
	if err := tbl.eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tbl.eng.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := tbl.eng.StartMigrationScheduler(0); err != ErrClosed {
		t.Fatalf("Start on closed engine: err = %v, want ErrClosed", err)
	}
	if _, err := tbl.eng.BeginTx(TxSnapshot); err != ErrClosed {
		t.Fatalf("BeginTx on closed engine: err = %v, want ErrClosed", err)
	}
}

// TestCloseStopsScheduler: Close alone halts the scheduler goroutine.
func TestCloseStopsScheduler(t *testing.T) {
	tbl := openTable(t, "", DefaultConfig(), evenRows(200, stressRow))
	ms, err := tbl.eng.StartMigrationScheduler(time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.eng.Close(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { ms.Stop(); close(done) }() // returns promptly iff the loop exited
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("scheduler still running after Close")
	}
}

// TestAdmitUnpressuredAllocs: while a scheduler runs, every Table write
// passes through admission, so the check of a cache under the migration
// threshold must allocate nothing — neither the variadic table slice nor
// the fill closure may escape.
func TestAdmitUnpressuredAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is meaningless under the race detector")
	}
	tbl := openTable(t, "", DefaultConfig(), evenRows(200, stressRow))
	defer tbl.eng.Close()
	if _, err := tbl.eng.StartMigrationScheduler(time.Hour); err != nil {
		t.Fatal(err)
	}
	e := tbl.eng
	if n := testing.AllocsPerRun(1000, func() {
		if due, err := e.admit(nil, tbl); due != nil || err != nil {
			t.Fatal(due, err)
		}
	}); n != 0 {
		t.Fatalf("unpressured admission: %.1f allocs per write, want 0", n)
	}
}
