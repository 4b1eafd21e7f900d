package main

// Every metric the benchmark emits is declared here, and BENCHMARK.json
// lists the same names (bench_test.go holds the two together). A run that
// computes a metric not declared here panics.

type metricDef struct {
	name, unit string
	better     string  // "lower" or "higher"
	bound      float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEndMetrics come from the untraced run against the masmd child.
// Every workload reports every one, as the driver requires: the classes of
// operation a workload does not issue itself are measured at rest on a spare
// copy of its dataset (see atRest).
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"write_ops_s", "1/s", "higher", 0.25},
	{"write_p50_us", "us", "lower", 0.25},
	{"get_ops_s", "1/s", "higher", 0.25},
	{"get_p50_us", "us", "lower", 0.25},
	{"scan_rows_s", "rows/s", "higher", 0.25},
	{"scan_p50_ms", "ms", "lower", 0.25},
	{"tx_p50_ms", "ms", "lower", 0.25},
	{"ok_frac", "ratio", "higher", 0.002},
	{"server_rss_peak_mb", "MB", "lower", 0.25},
}

// perLayerMetrics come from the traced run. The name's prefix is the module
// the number belongs to. The README says which end-to-end metric each one
// is expected to move, and on which workload.
var perLayerMetrics = []metricDef{
	// Six metrics the issue lists as end-to-end are reported here, ungated,
	// under their own names. fail_frac is zero on most workloads, so no
	// relative bound fits it (ok_frac carries the gate). The four tails, over
	// all samples of the window, are zero on a workload that does not issue
	// the class, and where it does they spread between runs by more than any
	// bound the driver allows (tx_p99_ms most: it is the migration stall),
	// as does recovery_s, which is little more than one fsync of a new file
	// and a rename, whenever the disk is busy.
	{"recovery_s", "s", "lower", 0},
	{"fail_frac", "ratio", "lower", 0},
	{"write_p99_us", "us", "lower", 0},
	{"get_p99_us", "us", "lower", 0},
	{"scan_p99_ms", "ms", "lower", 0},
	{"tx_p99_ms", "ms", "lower", 0},

	{"client.gen_late_frac", "ratio", "lower", 0},
	{"client.stall_ms_per_s", "ms/s", "lower", 0},
	{"client.backpressure_retries", "count", "lower", 0},
	{"client.write_max_ms", "ms", "lower", 0},

	{"proto.rows_encode_ns_per_row", "ns", "lower", 0},
	{"proto.rows_decode_ns_per_row", "ns", "lower", 0},
	{"proto.put_codec_ns", "ns", "lower", 0},
	{"proto.wire_bytes_per_row", "B", "lower", 0},

	{"server.scan_overhead_us_per_krow", "us", "lower", 0},
	{"server.get_overhead_us", "us", "lower", 0},
	{"server.put_overhead_us", "us", "lower", 0},
	{"server.group_size_mean", "count", "higher", 0},
	{"server.commit_wait_p50_us", "us", "lower", 0},
	{"server.backpressure_rejects", "count", "lower", 0},

	{"engine.apply_us", "us", "lower", 0},
	{"engine.get_us", "us", "lower", 0},
	{"engine.scan_setup_us", "us", "lower", 0},
	{"engine.scan_us_per_krow", "us", "lower", 0},
	{"engine.recovery_ms", "ms", "lower", 0},
	{"engine.recovery_after_load_ms", "ms", "lower", 0},
	{"engine.flush_ms_p50", "ms", "lower", 0},
	{"engine.migration_ms_p50", "ms", "lower", 0},
	{"engine.migrations", "count", "higher", 0},
	{"engine.migration_busy_frac", "ratio", "lower", 0},
	{"engine.sim_us_per_scan", "us", "lower", 0},

	{"core.runs_at_end", "count", "lower", 0},
	{"core.two_pass_merges", "count", "lower", 0},
	{"core.ssd_writes_per_update", "ratio", "lower", 0},

	{"txn.commit_us_per_100", "us", "lower", 0},

	{"wal.sync_p50_us", "us", "lower", 0},
	{"wal.sync_p99_us", "us", "lower", 0},
	{"wal.syncs_per_kwrite", "count", "lower", 0},
	{"wal.bytes_per_update", "B", "lower", 0},

	{"memtable.drains", "count", "lower", 0},
	{"memtable.flush_batch_records_mean", "count", "higher", 0},

	{"runfile.read_bytes_per_row", "B", "lower", 0},
	{"runfile.read_ops_per_get", "count", "lower", 0},
	{"table.read_bytes_per_row", "B", "lower", 0},
	{"table.read_ops_per_get", "count", "lower", 0},
	{"table.migration_pages_written", "count", "lower", 0},

	{"extsort.comparisons_per_row", "count", "lower", 0},
	{"extsort.refills_per_krow", "count", "lower", 0},

	{"storage.write_amp", "ratio", "lower", 0},
	{"storage.space_amp", "ratio", "lower", 0},
	{"storage.fsyncs_per_kwrite", "count", "lower", 0},
	{"storage.sync_busy_frac", "ratio", "lower", 0},
	{"storage.read_busy_frac", "ratio", "lower", 0},
	{"storage.write_busy_frac", "ratio", "lower", 0},

	{"query.selective_us", "us", "lower", 0},
	{"query.granules_skipped", "count", "higher", 0},
	{"query.plan_cold_us", "us", "lower", 0},
	{"query.plan_cached_us", "us", "lower", 0},

	{"trace.overhead_frac", "ratio", "lower", 0},
	{"trace.spans", "count", "lower", 0},

	// Shares of the time the clients observed in the traced slices of the
	// window. They add up to one; unattributed_frac is the remainder and is
	// negative where the modelled shares overstate.
	{"selftime.storage_frac", "ratio", "lower", 0},
	{"selftime.engine_frac", "ratio", "lower", 0},
	{"selftime.server_frac", "ratio", "lower", 0},
	{"selftime.client_frac", "ratio", "lower", 0},
	{"selftime.unattributed_frac", "ratio", "lower", 0},
}

var metricByName = func() map[string]metricDef {
	m := make(map[string]metricDef)
	for _, list := range [][]metricDef{endToEndMetrics, perLayerMetrics} {
		for _, d := range list {
			if _, dup := m[d.name]; dup {
				panic("benchmark: metric " + d.name + " declared twice")
			}
			m[d.name] = d
		}
	}
	return m
}()
