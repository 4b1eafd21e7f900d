package masm

import (
	"fmt"
	"sort"
	"sync"

	"masm/internal/obs"
)

// extent is a contiguous byte range of the SSD update-cache volume.
type extent struct {
	off, size int64
}

// SharedAlloc is the run allocator: one physical extent pool over an SSD
// update-cache volume, plus per-table byte accounting against a cap. Every
// store draws its run extents from a Partition of one (paper §5: "MaSM
// divides the flash space to maintain cached updates per table"); a
// single-table volume is one partition capped at the whole volume. Tables
// may be oversubscribed — the sum of caps can exceed the physical
// volume (the paper's §5 sharing argument: idle objects lend their space to
// busy ones; the migration scheduler keeps total pressure bounded) — but a
// single table can never grow past its own cap, so one runaway tenant
// cannot evict the rest.
//
// SharedAlloc is internally latched: partitions belonging to different
// stores allocate concurrently under their own store latches.
type SharedAlloc struct {
	mu   sync.Mutex
	pool *extentAlloc
	used map[uint32]int64 // physical bytes held per table
	cap  map[uint32]int64 // physical byte cap per table
	m    PoolMetrics
}

// PoolMetrics carries the shared allocator's observability handles. All
// fields are optional (obs handles are nil-safe no-ops). The gauges mirror
// the allocator's ledger at every mutation, so CheckMetrics can reconcile
// them exactly.
type PoolMetrics struct {
	UsedBytes     *obs.Gauge   // physical bytes held across all tables
	CapacityBytes *obs.Gauge   // physical pool capacity
	CapSumBytes   *obs.Gauge   // sum of per-table caps (> capacity ⇒ oversubscribed)
	Partitions    *obs.Gauge   // registered table partitions
	AllocFailures *obs.Counter // refused allocations (budget or pool exhausted)
}

// NewPoolMetrics registers the shared-pool series in reg.
func NewPoolMetrics(reg *obs.Registry) PoolMetrics {
	return PoolMetrics{
		UsedBytes:     reg.Gauge("masm_pool_used_bytes"),
		CapacityBytes: reg.Gauge("masm_pool_capacity_bytes"),
		CapSumBytes:   reg.Gauge("masm_pool_cap_sum_bytes"),
		Partitions:    reg.Gauge("masm_pool_partitions"),
		AllocFailures: reg.Counter("masm_pool_alloc_failures"),
	}
}

// SetMetrics installs the allocator's metric handles and primes the gauges
// from the current ledger.
func (sa *SharedAlloc) SetMetrics(m PoolMetrics) {
	sa.mu.Lock()
	defer sa.mu.Unlock()
	sa.m = m
	sa.m.CapacityBytes.Set(sa.pool.capacity)
	sa.syncMetricsLocked()
}

// syncMetricsLocked refreshes the ledger gauges; caller holds sa.mu. The
// maps are per-table (a handful of entries), so the sums are cheap — and
// allocation is per run, not per record, so this is nowhere near a hot path.
func (sa *SharedAlloc) syncMetricsLocked() {
	if sa.m.UsedBytes == nil {
		return
	}
	var used, caps int64
	for _, u := range sa.used {
		used += u
	}
	for _, c := range sa.cap {
		caps += c
	}
	sa.m.UsedBytes.Set(used)
	sa.m.CapSumBytes.Set(caps)
	sa.m.Partitions.Set(int64(len(sa.cap)))
}

// CheckMetrics reconciles the pool gauges against the live ledger. A
// SharedAlloc without metrics installed trivially passes.
func (sa *SharedAlloc) CheckMetrics() error {
	sa.mu.Lock()
	defer sa.mu.Unlock()
	if sa.m.UsedBytes == nil {
		return nil
	}
	var used, caps int64
	for _, u := range sa.used {
		used += u
	}
	for _, c := range sa.cap {
		caps += c
	}
	if g := sa.m.UsedBytes.Value(); g != used {
		return fmt.Errorf("masm: pool used-bytes gauge %d != ledger %d", g, used)
	}
	if g := sa.m.CapSumBytes.Value(); g != caps {
		return fmt.Errorf("masm: pool cap-sum gauge %d != ledger %d", g, caps)
	}
	if g := sa.m.Partitions.Value(); g != int64(len(sa.cap)) {
		return fmt.Errorf("masm: pool partitions gauge %d != ledger %d", g, len(sa.cap))
	}
	if g := sa.m.CapacityBytes.Value(); g != sa.pool.capacity {
		return fmt.Errorf("masm: pool capacity gauge %d != pool capacity %d", g, sa.pool.capacity)
	}
	return nil
}

// NewSharedAlloc creates a shared allocator over a physical volume of
// capacity bytes.
func NewSharedAlloc(capacity int64) *SharedAlloc {
	return &SharedAlloc{
		pool: newExtentAlloc(capacity),
		used: make(map[uint32]int64),
		cap:  make(map[uint32]int64),
	}
}

// Partition registers table with a physical byte cap and returns its view
// of the allocator. Registering an existing table replaces its cap.
func (sa *SharedAlloc) Partition(table uint32, cap int64) *Partition {
	sa.mu.Lock()
	defer sa.mu.Unlock()
	sa.cap[table] = cap
	sa.syncMetricsLocked()
	return &Partition{sa: sa, table: table}
}

// Drop forgets a table's cap and its held-bytes ledger. The caller releases
// the table's extents first (Store.ReleaseAllRuns); bytes still held when it
// drops simply leave the ledger.
func (sa *SharedAlloc) Drop(table uint32) {
	sa.mu.Lock()
	defer sa.mu.Unlock()
	delete(sa.used, table)
	delete(sa.cap, table)
	sa.syncMetricsLocked()
}

// Used reports the physical bytes currently held by table.
func (sa *SharedAlloc) Used(table uint32) int64 {
	sa.mu.Lock()
	defer sa.mu.Unlock()
	return sa.used[table]
}

// Partition is one table's view of a SharedAlloc: the store's run extents
// come from the shared pool and count against the table's cap. Its table id
// is the store's (Store.TableID).
type Partition struct {
	sa    *SharedAlloc
	table uint32
}

// Alloc reserves size bytes, returning the extent's offset. It fails, and
// counts one allocation failure, when the table's cap or the pool would be
// exceeded.
func (p *Partition) Alloc(size int64) (int64, error) {
	sa := p.sa
	sa.mu.Lock()
	defer sa.mu.Unlock()
	if used, cap := sa.used[p.table], sa.cap[p.table]; used+size > cap {
		sa.m.AllocFailures.Inc()
		return 0, fmt.Errorf("masm: table %d over its SSD cache budget: %d bytes held, %d requested, cap %d",
			p.table, used, size, cap)
	}
	off, err := sa.pool.alloc(size)
	if err != nil {
		sa.m.AllocFailures.Inc()
		return 0, err
	}
	sa.used[p.table] += size
	sa.syncMetricsLocked()
	return off, nil
}

// Release returns an extent to the pool.
func (p *Partition) Release(off, size int64) {
	sa := p.sa
	sa.mu.Lock()
	defer sa.mu.Unlock()
	sa.pool.release(off, size)
	sa.used[p.table] -= size
	sa.syncMetricsLocked()
}

// Reserve removes a specific range from the pool (crash recovery
// re-registering surviving runs). It fails if the range is not free.
func (p *Partition) Reserve(off, size int64) error {
	sa := p.sa
	sa.mu.Lock()
	defer sa.mu.Unlock()
	if err := sa.pool.reserve(off, size); err != nil {
		return err
	}
	sa.used[p.table] += size
	sa.syncMetricsLocked()
	return nil
}

// extentAlloc is a first-fit extent allocator with coalescing free list.
// Runs are allocated as single extents; deleting a migrated run returns
// its extent. Because runs are created and destroyed in large groups,
// first-fit keeps fragmentation negligible in practice, and the paper's
// migration threshold guarantees space is reclaimed before the cache
// fills.
type extentAlloc struct {
	capacity int64
	free     []extent // sorted by off, non-adjacent
}

func newExtentAlloc(capacity int64) *extentAlloc {
	return &extentAlloc{capacity: capacity, free: []extent{{0, capacity}}}
}

// alloc reserves size bytes, returning the offset.
func (a *extentAlloc) alloc(size int64) (int64, error) {
	for i := range a.free {
		if a.free[i].size >= size {
			off := a.free[i].off
			a.free[i].off += size
			a.free[i].size -= size
			if a.free[i].size == 0 {
				a.free = append(a.free[:i], a.free[i+1:]...)
			}
			return off, nil
		}
	}
	return 0, fmt.Errorf("masm: SSD update cache full: cannot allocate %d bytes (free %d in %d extents)",
		size, a.totalFree(), len(a.free))
}

// release returns an extent to the free list, coalescing neighbours.
func (a *extentAlloc) release(off, size int64) {
	if size == 0 {
		return
	}
	i := sort.Search(len(a.free), func(i int) bool { return a.free[i].off >= off })
	a.free = append(a.free, extent{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = extent{off, size}
	// Coalesce with successor, then predecessor.
	if i+1 < len(a.free) && a.free[i].off+a.free[i].size == a.free[i+1].off {
		a.free[i].size += a.free[i+1].size
		a.free = append(a.free[:i+1], a.free[i+2:]...)
	}
	if i > 0 && a.free[i-1].off+a.free[i-1].size == a.free[i].off {
		a.free[i-1].size += a.free[i].size
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
}

// reserve removes a specific range from the free list (crash recovery
// re-registering surviving runs). It fails if the range is not free.
func (a *extentAlloc) reserve(off, size int64) error {
	for i := range a.free {
		e := a.free[i]
		if off >= e.off && off+size <= e.off+e.size {
			// Split: [e.off, off) and [off+size, e.off+e.size).
			a.free = append(a.free[:i], a.free[i+1:]...)
			if off > e.off {
				a.release(e.off, off-e.off)
			}
			if off+size < e.off+e.size {
				a.release(off+size, e.off+e.size-(off+size))
			}
			return nil
		}
	}
	return fmt.Errorf("masm: extent [%d,%d) not free", off, off+size)
}

func (a *extentAlloc) totalFree() int64 {
	var n int64
	for _, e := range a.free {
		n += e.size
	}
	return n
}
