package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"time"

	"masm"
	"masm/internal/obs"
	"masm/internal/proto"
)

// runTraced is the second kind of run: the same set-up, warm-up, window,
// crash and check as runUntraced, but the server lives in this process so that the tracer sees the storage backends and the engine's
// lifecycle events, and each layer's public calls can be timed alone while
// the engine is idle.
func (r *runner) runTraced() error {
	r.tr = newTracer()
	// Two identical directories: one for masmd to be restarted on, one for
	// the server in this process, which is to meet the state set-up left.
	_, err := r.setUp(2)
	dir := r.dir(1)
	defer os.RemoveAll(dir)
	defer os.RemoveAll(r.dir(0))
	if err != nil {
		return err
	}
	if err := r.probeRecovery(r.dir(0)); err != nil {
		return err
	}

	h, err := openTraced(dir, r.p.cacheMiB, r.tr)
	if err != nil {
		return err
	}
	defer func() { // no path out of here leaves an engine open
		if h != nil {
			h.crash()
		}
	}()
	r.set("engine.recovery_ms", float64(h.recoveryNs)/1e6, 1, "")
	// The engine is now in the state the seed determines, and nothing runs
	// beside the probes: counts taken here repeat exactly.
	lib := r.probeReads(h)
	r.probeQuery(h)
	r.probeCodec()

	if err := h.serve(); err != nil {
		return err
	}
	if err := r.connect(h.addr(), r.m); err != nil {
		return err
	}
	wire := r.probeWire(lib)

	var before, after obs.Snapshot
	var filesBefore, filesAfter [numFiles]fileSnapshot
	var spansBefore int
	rec := r.traffic(func() {
		before, filesBefore, spansBefore = h.eng.Metrics(), r.tr.snapshotFiles(), r.tr.spanCount()
	}, func() {
		after, filesAfter = h.eng.Metrics(), r.tr.snapshotFiles()
	})
	// A lifecycle span that began before the window is reported at its end
	// and so lands here; it counts, as the window did wait for it.
	window := r.tr.spansSince(spansBefore)
	r.windowMetrics(h, rec, before, after, filesBefore, filesAfter, window)

	r.disconnect()
	err = h.crash()
	h = nil
	if err != nil {
		return fmt.Errorf("hard stop: %w", err)
	}
	if h, err = openTraced(dir, r.p.cacheMiB, r.tr); err != nil {
		return fmt.Errorf("reopen after hard stop: %w", err)
	}
	r.set("engine.recovery_after_load_ms", float64(h.recoveryNs)/1e6, 1, "")
	if err := h.serve(); err != nil {
		return err
	}
	if err := r.connect(h.addr(), r.m); err != nil {
		return err
	}
	r.finalCheck()
	r.set("storage.space_amp", spaceAmp(dir, r.m), 1, "")
	writes := r.probeWrites(h)
	r.disconnect()
	err = h.stop()
	h = nil
	if err != nil {
		return err
	}

	r.shares(window, rec, lib, wire, writes)
	r.set("trace.spans", float64(r.tr.spanCount()), 0, "")
	if r.spec.traceOut != "" {
		setParents(r.tr.spans)
		return writeTrace(r.spec.traceOut, r.tr.spans)
	}
	return nil
}

// probeRecovery times what a client waits after a crash: exec of masmd on
// dir to the first good reply, then a kill, thirteen times over. The first
// start replays the log set-up left and writes a checkpoint; the others meet
// what a kill right after recovery leaves, and are quicker. Like is timed
// with like: recovery_s is the median of the twelve, and the first kind is
// engine.recovery_ms.
func (r *runner) probeRecovery(dir string) error {
	var took []float64
	for i := 0; i <= 12; i++ {
		start := time.Now()
		h, err := startChild(r.spec.masmd, dir, r.p.cacheMiB)
		if err != nil {
			return err
		}
		c, err := firstReply(h.addr)
		if i > 0 {
			took = append(took, time.Since(start).Seconds())
		}
		h.crash()
		if err != nil {
			return fmt.Errorf("first request after recovery: %w", err)
		}
		c.Close()
	}
	r.set("recovery_s", median(took), len(took), "exec of masmd on a killed server's directory to first reply")
	r.lap("recovery")
	return nil
}

// timed runs fn n times and returns the sorted durations; the whole probe
// is one span.
func (r *runner) timed(n int, fn func(i int)) []int64 {
	out := make([]int64, n)
	start := r.tr.now()
	for i := range out {
		t0 := time.Now()
		fn(i)
		out[i] = int64(time.Since(t0))
	}
	r.tr.add(kProbe, -1, start, r.tr.now())
	slices.Sort(out)
	return out
}

func sum(v []int64) (s int64) {
	for _, x := range v {
		s += x
	}
	return s
}

func (r *runner) must(err error) {
	if err != nil {
		r.bad.add("probe: %v", err)
	}
}

// probeKeys and probeRanges are fixed by the seed, so the library and the
// wire read exactly the same things.
func (r *runner) probeKeys(n int) []uint64 {
	g := newKeygen(r.spec.seed+7, r.p.rows)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = g.hot()
	}
	return keys
}

func (r *runner) probeRanges(n int) []uint64 {
	rng := rand.New(rand.NewSource(r.spec.seed + 11))
	begins := make([]uint64, n)
	for i := range begins {
		begins[i] = 2 + rng.Uint64()%(2*uint64(r.p.rows)-r.p.span)
	}
	return begins
}

// libCosts are the library's unit costs on the idle engine, in ns.
type libCosts struct {
	get, scanPerRow float64
}

// probeReads times Table.Get and Table.Scan alone and counts what they read
// from each file and what the merge did.
func (r *runner) probeReads(h *tracedHost) libCosts {
	noRow := func(uint64, []byte) bool { return true }

	// Range scans. The first pass takes the counts: the simulated clock and
	// bytes read per row from each file. It also warms what a first touch of
	// the files warms, so the second pass, over the same rows, is the one
	// whose wall time is compared with the wire's.
	begins := r.probeRanges(100)
	f0, sim0 := r.tr.snapshotFiles(), h.eng.Elapsed()
	var rows int64
	scan := func(i int) {
		r.must(h.tbl.Scan(begins[i], begins[i]+r.p.span-1, func(uint64, []byte) bool { rows++; return true }))
	}
	r.timed(len(begins), scan)
	f1, sim1 := r.tr.snapshotFiles(), h.eng.Elapsed()
	rows = 0
	took := sum(r.timed(len(begins), scan))
	perRow := float64(took) / float64(rows)
	r.set("engine.sim_us_per_scan", float64(sim1-sim0)/1e3/float64(len(begins)), len(begins),
		"simulated device time; repeats exactly for a seed")
	r.set("engine.scan_us_per_krow", perRow, len(begins), "")
	r.set("runfile.read_bytes_per_row", float64(f1[fileRuns].readBytes-f0[fileRuns].readBytes)/float64(rows), int(rows), "")
	r.set("table.read_bytes_per_row", float64(f1[fileData].readBytes-f0[fileData].readBytes)/float64(rows), int(rows), "")
	// A scan of a range that holds no key: what every read pays before
	// the first row.
	empty := r.timed(2000, func(int) { r.must(h.tbl.Scan(1, 1, noRow)) })
	r.set("engine.scan_setup_us", float64(quantile(empty, 0.5))/1e3, len(empty), "")

	// Point reads, and the read calls each makes per file.
	keys := r.probeKeys(2000)
	f0 = r.tr.snapshotFiles()
	gets := r.timed(len(keys), func(i int) {
		_, _, err := h.tbl.Get(keys[i])
		r.must(err)
	})
	f1 = r.tr.snapshotFiles()
	r.set("engine.get_us", float64(quantile(gets, 0.5))/1e3, len(gets), "")
	r.set("runfile.read_ops_per_get", float64(f1[fileRuns].reads-f0[fileRuns].reads)/float64(len(keys)), len(keys), "")
	r.set("table.read_ops_per_get", float64(f1[fileData].reads-f0[fileData].reads)/float64(len(keys)), len(keys), "")
	return libCosts{get: float64(quantile(gets, 0.5)), scanPerRow: perRow}
}

// probeQuery times Table.Query with a pushed-down key predicate of 1%
// selectivity: run to the end (query.selective_us: execution, pruned by the
// zone maps), and cut off after one row, cold and repeated, where what is
// left to time is the planning the plan cache saves. Nothing over the wire
// reaches this code yet; the numbers are here so that the decision to keep or
// drop the plan cache has one.
func (r *runner) probeQuery(h *tracedHost) {
	table := obs.L("table", tableName)
	last := 2 * uint64(r.p.rows)
	width := last / 200 // two ranges of 0.5% each
	// Every position is a shape of its own to the plan cache.
	query := func(position uint64, limit int64) func(int) {
		lo := last / 50 * (position + 1)
		spec := masm.QuerySpec{Begin: 0, End: last + 8, Limit: limit,
			KeyRanges: []masm.KeyRange{{Lo: lo, Hi: lo + width}, {Lo: lo + last/3, Hi: lo + last/3 + width}}}
		return func(int) { r.must(h.tbl.Query(spec, func(uint64, []byte) bool { return true })) }
	}
	const full, limited = 5, 20
	var whole, cold, cached []int64
	skipped := -h.eng.Metrics().Counter("masm_query_granules_skipped", table)
	for p := uint64(0); p < full; p++ {
		whole = append(whole, r.timed(9, query(p, 0))...)
	}
	skipped += h.eng.Metrics().Counter("masm_query_granules_skipped", table)
	for p := uint64(full); p < full+limited; p++ {
		q := query(p, 1)
		cold = append(cold, r.timed(1, q)...)
		cached = append(cached, r.timed(4, q)...)
	}
	for _, v := range [][]int64{whole, cold, cached} {
		slices.Sort(v)
	}
	r.set("query.selective_us", float64(quantile(whole, 0.5))/1e3, len(whole), "run to the end")
	r.set("query.granules_skipped", float64(skipped)/float64(len(whole)), len(whole), "per query run to the end")
	r.set("query.plan_cold_us", float64(quantile(cold, 0.5))/1e3, len(cold), "first execution of a new shape, limit 1")
	r.set("query.plan_cached_us", float64(quantile(cached, 0.5))/1e3, len(cached), "the same shape again, limit 1")
}

// probeCodec times the protocol's encode and decode on a full row batch and
// on one put.
func (r *runner) probeCodec() {
	const batch = 256
	rows := &proto.Msg{Op: proto.OpRows, Rows: make([]proto.Row, batch)}
	for i := range rows.Rows {
		key := uint64(2 * (i + 1))
		rows.Rows[i] = proto.Row{Key: key, Body: encodeBody(make([]byte, bodyLen), key, 0)}
	}
	var buf []byte
	var out proto.Msg
	enc := r.timed(2000, func(int) {
		var err error
		buf, err = proto.AppendPayload(buf[:0], rows)
		r.must(err)
	})
	dec := r.timed(2000, func(int) { r.must(proto.DecodePayload(buf, &out)) })
	r.set("proto.rows_encode_ns_per_row", float64(quantile(enc, 0.5))/batch, len(enc), "")
	r.set("proto.rows_decode_ns_per_row", float64(quantile(dec, 0.5))/batch, len(dec), "")
	// 4 bytes of length prefix precede each frame's payload.
	r.set("proto.wire_bytes_per_row", float64(len(buf)+4)/batch, batch, "")

	put := &proto.Msg{Op: proto.OpPut, Table: tableName, Key: 2, Body: rows.Rows[0].Body}
	codec := r.timed(20000, func(int) {
		var err error
		buf, err = proto.AppendPayload(buf[:0], put)
		r.must(err)
		r.must(proto.DecodePayload(buf, &out))
	})
	r.set("proto.put_codec_ns", float64(quantile(codec, 0.5)), len(codec), "")
}

// wireCosts are what the wire adds to the library's unit costs, in ns.
type wireCosts struct {
	get, scanPerRow float64
}

// probeWire reads the same keys and ranges as probeReads through one
// connection to the idle server; the difference is what the server, the
// protocol and the socket cost.
func (r *runner) probeWire(lib libCosts) wireCosts {
	c := r.clients[0].c
	noRow := func(uint64, []byte) bool { return true }
	begins := r.probeRanges(100)
	var rows int64
	scans := r.timed(len(begins), func(i int) {
		r.must(c.Scan(tableName, begins[i], begins[i]+r.p.span-1, 0, func(uint64, []byte) bool { rows++; return true }))
	})
	keys := r.probeKeys(2000)
	gets := r.timed(len(keys), func(i int) { r.must(c.Scan(tableName, keys[i], keys[i], 1, noRow)) })
	w := wireCosts{
		get:        float64(quantile(gets, 0.5)) - lib.get,
		scanPerRow: float64(sum(scans))/float64(rows) - lib.scanPerRow,
	}
	r.set("server.scan_overhead_us_per_krow", w.scanPerRow, len(begins), "Client.Scan minus Table.Scan, same ranges")
	r.set("server.get_overhead_us", w.get/1e3, len(keys), "one-key Client.Scan minus Table.Get, same keys")
	return w
}

// writeCosts are the write path's unit costs on the idle server, in ns.
type writeCosts struct {
	apply, putOverhead, commit100 float64
}

// probeWrites runs after the final check, so what it writes is never read
// back; it still goes through the model to carry well-formed bodies.
func (r *runner) probeWrites(h *tracedHost) writeCosts {
	cl := r.clients[0]
	// With a second connection open the server holds each commit back for
	// a companion that never comes; alone, a put costs what it costs.
	r.clients[1].c.Close()
	var body [bodyLen]byte
	if h.tbl.CacheFill() > 0.5 {
		// A cache near its limit makes the server hold writes back, which
		// is the workload's doing and not a unit cost.
		r.must(h.tbl.Migrate())
	}
	apply := r.timed(2000, func(int) {
		r.must(applyLibrary(h.tbl, r.m, own(cl.g.uniform(), 0), opPut, body[:]))
	})
	// The library's durable put and the wire's take turns, so that a
	// change in what an fsync costs meanwhile meets both alike.
	var syncs, puts []int64
	for i := 0; i < 300; i++ {
		syncs = append(syncs, r.timed(1, func(int) {
			r.must(applyLibrary(h.tbl, r.m, own(cl.g.uniform(), 0), opPut, body[:]))
			r.must(h.eng.Sync())
		})...)
		puts = append(puts, r.timed(1, func(int) {
			key := own(cl.g.uniform(), 0)
			_, err := cl.send(key, opPut, r.m.begin(key))
			r.must(err)
		})...)
	}
	slices.Sort(syncs)
	slices.Sort(puts)
	commits := r.timed(30, func(int) {
		tx, err := h.eng.BeginTx(masm.TxSnapshot)
		r.must(err)
		for i := 0; i < txSize && err == nil; i++ {
			key := cl.g.distinct(0)
			err = tx.Insert(tableName, key, encodeBody(body[:], key, r.m.begin(key)))
		}
		if err == nil {
			err = tx.Commit()
		}
		r.must(err)
	})
	w := writeCosts{
		apply:       float64(quantile(apply, 0.5)),
		putOverhead: float64(quantile(puts, 0.5) - quantile(syncs, 0.5)),
		commit100:   float64(quantile(commits, 0.5)),
	}
	r.set("engine.apply_us", w.apply/1e3, len(apply), "")
	r.set("server.put_overhead_us", w.putOverhead/1e3, len(puts), "Client.Put minus Table.Insert+Engine.Sync")
	r.set("txn.commit_us_per_100", w.commit100/1e3, len(commits), "")
	return w
}

// spaceAmp is the blocks the directory occupies over the bytes of the rows
// it holds.
func spaceAmp(dir string, m *model) float64 {
	var blocks int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil {
			if st, ok := info.Sys().(*syscall.Stat_t); ok && info.Mode().IsRegular() {
				blocks += st.Blocks
			}
		}
		return nil
	})
	live, _ := m.present()
	return float64(blocks*512) / float64(live*(bodyLen+8))
}

type fileSnapshot struct{ reads, readBytes, writeBytes, syncs int64 }

func (t *tracer) snapshotFiles() (s [numFiles]fileSnapshot) {
	for f := range t.files {
		c := &t.files[f]
		s[f] = fileSnapshot{c.reads.Load(), c.readBytes.Load(), c.writeBytes.Load(), c.syncs.Load()}
	}
	return s
}

func (t *tracer) spanCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// spansSince returns the spans recorded after the first n. Spans are only
// ever appended, so the slice stays valid.
func (t *tracer) spansSince(n int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[n:len(t.spans):len(t.spans)]
}

// windowMetrics derives the per-layer metrics that describe the measured
// window: registry deltas, file counts, lifecycle spans, client-side counts.
func (r *runner) windowMetrics(h *tracedHost, rec *samples, before, after obs.Snapshot,
	f0, f1 [numFiles]fileSnapshot, spans []span) {
	table := obs.L("table", tableName)
	delta := func(name string, labels ...obs.Label) float64 {
		return float64(after.Counter(name, labels...) - before.Counter(name, labels...))
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	secs := r.p.window.Seconds()

	// Client side.
	r.set("client.gen_late_frac", ratio(float64(rec.late), float64(rec.sends)), int(rec.sends), "")
	var stalled int64
	for _, iv := range union(rec.stalls) {
		stalled += iv.end - iv.start
	}
	r.set("client.stall_ms_per_s", float64(stalled)/1e6/secs, len(rec.stalls), "")
	r.set("client.backpressure_retries", float64(rec.refusals), int(rec.attempts), "")
	r.set("client.write_max_ms", float64(rec.maxWrite)/1e6, len(rec.lat[classWrite]), "")
	odd, even := float64(rec.sliceUnits[1]), float64(rec.sliceUnits[0])
	r.set("trace.overhead_frac", 1-ratio(odd, even), rec.slices,
		"1 - units completed in traced slices / in untraced slices")

	// Server and engine registries.
	groups := histDelta(before.Histogram("masm_wal_group_size"), after.Histogram("masm_wal_group_size"))
	waits := histDelta(before.Histogram("masm_server_commit_wait_ns"), after.Histogram("masm_server_commit_wait_ns"))
	batches := histDelta(before.Histogram("masm_flush_batch_records", table), after.Histogram("masm_flush_batch_records", table))
	r.set("server.group_size_mean", groups.Mean(), int(groups.Count), "")
	r.set("server.commit_wait_p50_us", float64(waits.Quantile(0.5))/1e3, int(waits.Count), "")
	r.set("server.backpressure_rejects", delta("masm_server_backpressure_rejects"), 0, "")
	r.set("engine.migrations", delta("masm_migrations", table), 0, "")
	r.set("core.runs_at_end", float64(after.Gauge("masm_run_count", table)), 0, "")
	r.set("core.two_pass_merges", delta("masm_two_pass_merges", table), 0, "")
	r.set("core.ssd_writes_per_update", h.tbl.Stats().WritesPerUpdate, 0, "since the server started")
	r.set("memtable.drains", delta("masm_memtable_drains", table), 0, "")
	r.set("memtable.flush_batch_records_mean", batches.Mean(), int(batches.Count), "")
	r.set("table.migration_pages_written", delta("masm_migration_pages_written", table), 0, "")
	// The registry counts merge work for migrations and two-pass merges
	// only; the merges inside queries are not counted anywhere.
	merged := delta("masm_merge_records", table)
	r.set("extsort.comparisons_per_row", ratio(delta("masm_merge_comparisons", table), merged), int(merged), "migration and two-pass merges")
	r.set("extsort.refills_per_krow", 1e3*ratio(delta("masm_merge_refills", table), merged), int(merged), "migration and two-pass merges")

	// Files. Per-write ratios are over the updates the engine accepted in
	// the window (a transaction's 100 puts are 100 updates).
	updates := delta("masm_updates_accepted", table)
	acks := delta("masm_server_writes")
	var written, syncs float64
	for f := range f1 {
		written += float64(f1[f].writeBytes - f0[f].writeBytes)
		syncs += float64(f1[f].syncs - f0[f].syncs)
	}
	r.set("wal.syncs_per_kwrite", 1e3*ratio(float64(f1[fileWal].syncs-f0[fileWal].syncs), acks), int(acks), "per 1000 acknowledged writes")
	r.set("wal.bytes_per_update", ratio(float64(f1[fileWal].writeBytes-f0[fileWal].writeBytes), updates), int(updates), "")
	r.set("storage.fsyncs_per_kwrite", 1e3*ratio(syncs, acks), int(acks), "all three files")
	r.set("storage.write_amp", ratio(written, updates*(bodyLen+8)), int(updates), "bytes written to the three files / bytes of updates accepted")

	// Spans of the traced half of the window.
	traced := secs / 2
	var byKind [numKinds][]int64
	var busy [numKinds]int64
	for _, s := range spans {
		byKind[s.kind] = append(byKind[s.kind], s.end-s.start)
		busy[s.kind] += s.end - s.start
	}
	for k := range byKind {
		slices.Sort(byKind[k])
	}
	walSync := byKind[kWalSync]
	r.set("wal.sync_p50_us", float64(quantile(walSync, 0.5))/1e3, len(walSync), "")
	r.set("wal.sync_p99_us", float64(tail(walSync))/1e3, len(walSync),
		fmt.Sprintf("p%.4g", 100*tailQuantile(len(walSync))))
	frac := func(kinds ...spanKind) float64 {
		var ns int64
		for _, k := range kinds {
			ns += busy[k]
		}
		return float64(ns) / 1e9 / traced
	}
	r.set("storage.sync_busy_frac", frac(kWalSync, kRunsSync, kDataSync), 0, "time in calls / wall, can exceed 1 with concurrent calls")
	r.set("storage.read_busy_frac", frac(kWalRead, kRunsRead, kDataRead), 0, "")
	r.set("storage.write_busy_frac", frac(kWalWrite, kRunsWrite, kDataWrite), 0, "")
	r.set("engine.flush_ms_p50", float64(quantile(byKind[kFlush], 0.5))/1e6, len(byKind[kFlush]),
		"from the first cache.runs write to the flush event")
	r.set("engine.migration_ms_p50", float64(quantile(byKind[kMigration], 0.5))/1e6, len(byKind[kMigration]), "")
	r.set("engine.migration_busy_frac", float64(busy[kMigration])/1e9/secs, len(byKind[kMigration]), "")
}

// shares records where the clients' time went in the traced slices of the
// window: what the spans cover, then what the idle-engine unit costs times
// the work done come to, then the remainder, which has a sign.
func (r *runner) shares(spans []span, rec *samples, lib libCosts, wire wireCosts, w writeCosts) {
	self, total := selfTimes(spans)
	total = max(total, 1) // a window too short to hold a traced call reports zeros
	// Units completed per client call kind.
	var calls [numKinds]float64
	for _, s := range spans {
		if s.kind.isClientCall() {
			calls[s.kind] += float64(s.units)
		}
	}
	var storage, lifecycle, unseen float64
	for k := kWalRead; k <= kDataSync; k++ {
		storage += float64(self[k])
	}
	for k := kFlush; k <= kMigration; k++ {
		lifecycle += float64(self[k])
	}
	for k := kPut; k <= kTx; k++ {
		unseen += float64(self[k])
	}
	// Idle-engine unit costs times the work done. The library costs
	// include the file reads the spans already cover.
	engine := calls[kGet]*lib.get + calls[kScan]*lib.scanPerRow + calls[kPut]*w.apply + calls[kTx]*w.commit100
	engine = max(0, engine-float64(self[kRunsRead]+self[kDataRead]))
	server := calls[kGet]*wire.get + calls[kScan]*wire.scanPerRow + calls[kPut]*w.putOverhead
	server = max(0, server)
	out := []share{}
	for k := kVerify; k <= kMigration; k++ {
		if self[k] > 0 {
			out = append(out, share{kindNames[k], float64(self[k]) / float64(total), "span"})
		}
	}
	// The modelled costs were measured on the idle engine and are not fitted
	// to what is left: where they exceed it the remainder is negative, and
	// says by how much the model overstates what the window's calls cost.
	rest, what := unseen-engine-server, "unattributed"
	if rest < 0 {
		what = "overattributed (the modelled costs exceed what was left)"
	}
	out = append(out,
		share{"engine (library unit cost x work, less file reads)", engine / float64(total), "modelled"},
		share{"server+proto+socket (wire minus library unit cost x work)", server / float64(total), "modelled"},
		share{what, rest / float64(total), "remainder"})
	r.res.Shares = out
	r.set("selftime.storage_frac", storage/float64(total), 0, "")
	r.set("selftime.engine_frac", (lifecycle+engine)/float64(total), 0, "lifecycle spans plus modelled engine time")
	r.set("selftime.server_frac", server/float64(total), 0, "modelled")
	r.set("selftime.client_frac", float64(self[kVerify])/float64(total), 0, "")
	r.set("selftime.unattributed_frac", rest/float64(total), 0, "negative: overattributed")
}

// histDelta is the histogram of the observations made between two
// snapshots of one series.
func histDelta(before, after *obs.HistSnapshot) *obs.HistSnapshot {
	if after == nil {
		return &obs.HistSnapshot{}
	}
	if before == nil {
		return after
	}
	d := &obs.HistSnapshot{Count: after.Count - before.Count, Sum: after.Sum - before.Sum}
	was := make(map[int64]int64, len(before.Buckets))
	for _, b := range before.Buckets {
		was[b.Upper] = b.Count
	}
	for _, b := range after.Buckets {
		if n := b.Count - was[b.Upper]; n > 0 {
			d.Buckets = append(d.Buckets, obs.HistBucket{Upper: b.Upper, Count: n})
		}
	}
	return d
}
