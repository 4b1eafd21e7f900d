package masm

import (
	"slices"
	"testing"

	"masm/internal/obs"
)

// TestSharedAllocLedger drives one SharedAlloc through its partitions'
// budget refusals, pool exhaustion, reservations, re-partitioning and a
// drop. After every step the per-table ledger, the cap sum and partition
// count (read through the registry by series name), the pool metrics
// reconciliation and the allocation-failure counter must be exactly as
// expected, and a refused step must leave every ledger byte where it was.
func TestSharedAllocLedger(t *testing.T) {
	reg := obs.NewRegistry()
	sa := NewSharedAlloc(1000)
	sa.SetMetrics(NewPoolMetrics(reg))
	p1 := sa.Partition(1, 300)
	p2 := sa.Partition(2, 2000) // oversubscribed: the pool binds first
	var off1, off2 int64

	alloc := func(p *Partition, size int64, off *int64) func() error {
		return func() error {
			o, err := p.Alloc(size)
			if off != nil {
				*off = o
			}
			return err
		}
	}
	steps := []struct {
		name     string
		op       func() error
		refused  bool
		used     [2]int64 // Used(1), Used(2) after the step
		parts    int64    // masm_pool_partitions
		capSum   int64    // masm_pool_cap_sum_bytes
		failures int64    // masm_pool_alloc_failures
	}{
		{"alloc within the cap", alloc(p1, 200, &off1), false, [2]int64{200, 0}, 2, 2300, 0},
		{"cap refusal", alloc(p1, 101, nil), true, [2]int64{200, 0}, 2, 2300, 1},
		{"alloc the rest of the pool", alloc(p2, 800, &off2), false, [2]int64{200, 800}, 2, 2300, 1},
		{"pool exhausted under a cap that does not bind", alloc(p2, 1, nil), true, [2]int64{200, 800}, 2, 2300, 2},
		{"release", func() error { p2.Release(off2, 800); return nil }, false, [2]int64{200, 0}, 2, 2300, 2},
		{"reserve a free range", func() error { return p2.Reserve(500, 100) }, false, [2]int64{200, 100}, 2, 2300, 2},
		// A refused reservation is a recovery error, not an allocation
		// failure: the counter stays put.
		{"reserve a held range", func() error { return p1.Reserve(off1, 100) }, true, [2]int64{200, 100}, 2, 2300, 2},
		{"re-partition replaces the cap", func() error { sa.Partition(1, 600); return nil }, false, [2]int64{200, 100}, 2, 2600, 2},
		{"alloc under the replaced cap", alloc(p1, 300, nil), false, [2]int64{500, 100}, 2, 2600, 2},
		{"re-partition lowers the cap", func() error { sa.Partition(1, 500); return nil }, false, [2]int64{500, 100}, 2, 2500, 2},
		{"refused under the lowered cap", alloc(p1, 1, nil), true, [2]int64{500, 100}, 2, 2500, 3},
		{"release before the drop", func() error { p2.Release(500, 100); return nil }, false, [2]int64{500, 0}, 2, 2500, 3},
		{"drop", func() error { sa.Drop(2); return nil }, false, [2]int64{500, 0}, 1, 500, 3},
		{"a dropped table has no cap", alloc(p2, 1, nil), true, [2]int64{500, 0}, 1, 500, 4},
	}
	for _, st := range steps {
		freeBefore := slices.Clone(sa.pool.free)
		usedBefore := [2]int64{sa.Used(1), sa.Used(2)}
		err := st.op()
		if (err != nil) != st.refused {
			t.Fatalf("%s: err = %v, want refused %v", st.name, err, st.refused)
		}
		if st.refused && (!slices.Equal(sa.pool.free, freeBefore) || [2]int64{sa.Used(1), sa.Used(2)} != usedBefore) {
			t.Fatalf("%s: a refusal moved the ledger: free %v → %v, used %v → %v",
				st.name, freeBefore, sa.pool.free, usedBefore, [2]int64{sa.Used(1), sa.Used(2)})
		}
		if got := [2]int64{sa.Used(1), sa.Used(2)}; got != st.used {
			t.Fatalf("%s: used = %v, want %v", st.name, got, st.used)
		}
		if free := sa.pool.totalFree(); free != 1000-st.used[0]-st.used[1] {
			t.Fatalf("%s: pool free %d, but tables hold %v of 1000", st.name, free, st.used)
		}
		if err := sa.CheckMetrics(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		snap := reg.Snapshot()
		if got := snap.Gauge("masm_pool_partitions"); got != st.parts {
			t.Fatalf("%s: masm_pool_partitions = %d, want %d", st.name, got, st.parts)
		}
		if got := snap.Gauge("masm_pool_cap_sum_bytes"); got != st.capSum {
			t.Fatalf("%s: masm_pool_cap_sum_bytes = %d, want %d", st.name, got, st.capSum)
		}
		if got := snap.Counter("masm_pool_alloc_failures"); got != st.failures {
			t.Fatalf("%s: masm_pool_alloc_failures = %d, want %d", st.name, got, st.failures)
		}
	}
}
