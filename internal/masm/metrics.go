package masm

import (
	"fmt"

	"masm/internal/extsort"
	"masm/internal/obs"
	"masm/internal/runfile"
)

// StoreMetrics is a store's pre-resolved handles into an obs.Registry:
// every hot-path instrumentation point touches a field here — one atomic
// op, no lookups — so instrumentation can never perturb the simulated
// timeline or allocate. Gauges mirror live store state (run bytes/count,
// memtable bytes, reader registrations) at every mutation site, which is
// what lets CheckMetrics reconcile the registry against the store as a
// model-checked invariant rather than a best-effort report.
type StoreMetrics struct {
	// Write path.
	UpdatesAccepted   *obs.Counter
	PagesStolen       *obs.Counter
	MemtableDrains    *obs.Counter
	FlushBatchRecords *obs.Histogram

	// SSD cache.
	RecordWritesSSD *obs.Counter
	BytesWrittenSSD *obs.Counter
	OnePassRuns     *obs.Counter
	TwoPassMerges   *obs.Counter
	RunBytes        *obs.Gauge
	RunCount        *obs.Gauge
	RunFilterBytes  *obs.Gauge // DRAM held by the live runs' key filters
	MemtableBytes   *obs.Gauge

	// Migration.
	Migrations            *obs.Counter
	MigratedRecords       *obs.Counter
	MigrationRunsMigrated *obs.Counter
	MigrationBytesRead    *obs.Counter
	MigrationPagesRead    *obs.Counter
	MigrationPagesWritten *obs.Counter
	MigrationSortNanos    *obs.Histogram // flush-below-migTS phase (virtual)
	MigrationMergeNanos   *obs.Histogram // merge + shadow-write phase (virtual)
	MigrationCommitNanos  *obs.Histogram // end/portion record + checkpoint (virtual)
	SlotsRetired          *obs.Gauge

	// Scans.
	ScansStarted     *obs.Counter
	ScanLatencyNanos *obs.Histogram // virtual time, open to close
	ScanBytes        *obs.Histogram // row bytes returned per scan
	ActiveQueries    *obs.Gauge
	OpenSnapshots    *obs.Gauge
	QueryPagesInUse  *obs.Gauge

	// Point lookups (Store.Get): how many ran, and over them how many runs
	// were read and how many the span/timestamp/filter check spared.
	Gets            *obs.Counter
	GetRunsProbed   *obs.Counter
	GetRunsFiltered *obs.Counter

	// Query executor: zone-map pruning and predicate pushdown. Folded in
	// at query close (run-scan stats), never per record.
	GranulesSkipped  *obs.Counter
	PushdownFiltered *obs.Counter

	// Merge engine (flushed from extsort.Merger totals, not per record).
	MergeComparisons *obs.Counter
	MergeRefills     *obs.Counter
	MergeRecords     *obs.Counter

	// Tracer receives lifecycle events (flush, merge, migration); shared
	// engine-wide, may be nil.
	Tracer *obs.Tracer

	// table is the label value used when emitting trace events.
	table string
}

// NewStoreMetrics registers (or re-attaches to) a store's metric series
// in reg, labeled with the given labels — a multi-table engine passes
// {table: name} so tenants stay distinguishable; a standalone store
// passes none. Registration is idempotent, so a store restored after a
// crash resumes the same series.
func NewStoreMetrics(reg *obs.Registry, labels ...obs.Label) *StoreMetrics {
	m := &StoreMetrics{
		UpdatesAccepted:   reg.Counter("masm_updates_accepted", labels...),
		PagesStolen:       reg.Counter("masm_query_pages_stolen", labels...),
		MemtableDrains:    reg.Counter("masm_memtable_drains", labels...),
		FlushBatchRecords: reg.Histogram("masm_flush_batch_records", labels...),

		RecordWritesSSD: reg.Counter("masm_ssd_record_writes", labels...),
		BytesWrittenSSD: reg.Counter("masm_ssd_bytes_written", labels...),
		OnePassRuns:     reg.Counter("masm_one_pass_runs", labels...),
		TwoPassMerges:   reg.Counter("masm_two_pass_merges", labels...),
		RunBytes:        reg.Gauge("masm_run_bytes", labels...),
		RunCount:        reg.Gauge("masm_run_count", labels...),
		RunFilterBytes:  reg.Gauge("masm_run_filter_bytes", labels...),
		MemtableBytes:   reg.Gauge("masm_memtable_bytes", labels...),

		Migrations:            reg.Counter("masm_migrations", labels...),
		MigratedRecords:       reg.Counter("masm_migrated_records", labels...),
		MigrationRunsMigrated: reg.Counter("masm_migration_runs_migrated", labels...),
		MigrationBytesRead:    reg.Counter("masm_migration_bytes_read", labels...),
		MigrationPagesRead:    reg.Counter("masm_migration_pages_read", labels...),
		MigrationPagesWritten: reg.Counter("masm_migration_pages_written", labels...),
		MigrationSortNanos:    reg.Histogram("masm_migration_sort_nanos", labels...),
		MigrationMergeNanos:   reg.Histogram("masm_migration_merge_nanos", labels...),
		MigrationCommitNanos:  reg.Histogram("masm_migration_commit_nanos", labels...),
		SlotsRetired:          reg.Gauge("masm_slots_retired", labels...),

		ScansStarted:     reg.Counter("masm_scans_started", labels...),
		ScanLatencyNanos: reg.Histogram("masm_scan_latency_nanos", labels...),
		ScanBytes:        reg.Histogram("masm_scan_bytes", labels...),
		ActiveQueries:    reg.Gauge("masm_active_queries", labels...),
		OpenSnapshots:    reg.Gauge("masm_open_snapshots", labels...),
		QueryPagesInUse:  reg.Gauge("masm_query_pages_in_use", labels...),

		Gets:            reg.Counter("masm_gets", labels...),
		GetRunsProbed:   reg.Counter("masm_get_runs_probed", labels...),
		GetRunsFiltered: reg.Counter("masm_get_runs_filtered", labels...),

		GranulesSkipped:  reg.Counter("masm_query_granules_skipped", labels...),
		PushdownFiltered: reg.Counter("masm_pushdown_records_filtered", labels...),

		MergeComparisons: reg.Counter("masm_merge_comparisons", labels...),
		MergeRefills:     reg.Counter("masm_merge_refills", labels...),
		MergeRecords:     reg.Counter("masm_merge_records", labels...),
	}
	for _, l := range labels {
		if l.Key == "table" {
			m.table = l.Value
		}
	}
	return m
}

// addMerger folds a finished (or abandoned) merger's totals into the
// merge-engine counters. The Merger accumulates plain int64s internally —
// atomics per comparison would tax the hottest loop in the engine — and
// consumers fold them in at completion.
func (m *StoreMetrics) addMerger(st extsort.MergerStats) {
	m.MergeComparisons.Add(st.Comparisons)
	m.MergeRefills.Add(st.Refills)
	m.MergeRecords.Add(st.Records)
}

// trace emits one lifecycle event tagged with this store's table.
func (m *StoreMetrics) trace(op, phase, detail string, vnanos int64) {
	m.Tracer.Emit(op, m.table, phase, detail, vnanos)
}

// syncSlotGauges refreshes the shadow-slot gauge from the table's
// allocator state; called after the reclaim points of a migration.
func (s *Store) syncSlotGauges() {
	_, _, retired, _ := s.tbl.SlotCounts()
	s.m.SlotsRetired.Set(retired)
}

// CheckMetrics cross-checks the registry's gauges against the store's
// live state: the byte/count ledgers must agree exactly, or the
// instrumentation (or the state accounting it mirrors) has a bug. The
// chaos executor calls it alongside CheckInvariants so the metric plane
// is model-checked, not decorative.
func (s *Store) CheckMetrics() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if g, w := s.m.RunBytes.Value(), s.runBytes; g != w {
		return fmt.Errorf("masm: run-bytes gauge %d != live run bytes %d", g, w)
	}
	if g, w := s.m.RunCount.Value(), int64(len(s.runs)); g != w {
		return fmt.Errorf("masm: run-count gauge %d != live run count %d", g, w)
	}
	var filterBytes int64
	for _, r := range s.runs {
		// A filter rebuilt at recovery must come out the size its writer
		// made it: both derive it from the record count.
		if g, w := r.FilterBytes(), runfile.FilterBytesFor(r.Count); g != w {
			return fmt.Errorf("masm: run %d: key filter of %d bytes for %d records, want %d", r.ID, g, r.Count, w)
		}
		filterBytes += r.FilterBytes()
	}
	if g := s.m.RunFilterBytes.Value(); g != filterBytes || s.runFilterBytes != filterBytes {
		return fmt.Errorf("masm: run-filter-bytes gauge %d, ledger %d != live runs' filters %d",
			g, s.runFilterBytes, filterBytes)
	}
	if g, w := s.m.MemtableBytes.Value(), int64(s.buf.Bytes()); g != w {
		return fmt.Errorf("masm: memtable-bytes gauge %d != live buffer bytes %d", g, w)
	}
	if g, w := s.m.ActiveQueries.Value(), int64(s.queries); g != w {
		return fmt.Errorf("masm: active-queries gauge %d != live query count %d", g, w)
	}
	if g, w := s.m.OpenSnapshots.Value(), int64(s.snapshots); g != w {
		return fmt.Errorf("masm: open-snapshots gauge %d != live snapshot count %d", g, w)
	}
	if g, w := s.m.QueryPagesInUse.Value(), int64(s.queryPagesInUse); g != w {
		return fmt.Errorf("masm: query-pages gauge %d != live pinned pages %d", g, w)
	}
	return nil
}
