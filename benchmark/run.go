package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"syscall"
	"time"

	"masm/internal/proto"
)

// numConns is fixed: the reference machine has two cores, and one client
// process with two connections keeps both busy without the clients
// outnumbering them.
const numConns = 2

var workloadNames = []string{"ingest", "scan", "point-read", "mixed"}

// params are the sizes of one run. What goes with the size of the data is
// derived from the row count, so that the smoke test exercises the same code
// at a fiftieth of the size; what goes with the size of the cache is not.
type params struct {
	rows      int
	prefill   int    // library updates applied in set-up
	cacheMiB  int    // masmd -cache
	span      uint64 // keys per range scan
	warmup    time.Duration
	window    time.Duration
	checkKeys int // written keys read back after the run
}

func paramsFor(workload string, rows int, seconds float64) params {
	p := params{
		rows: rows,
		// The update cache is far smaller than the update volume, so that
		// migration runs several times inside the window.
		cacheMiB:  2,
		span:      uint64(rows / 25), // 40,000 keys, about 22,800 rows, at full size
		window:    time.Duration(seconds * float64(time.Second)),
		checkKeys: max(2000*rows/1_000_000, 8),
	}
	p.warmup = p.window / 4
	switch workload {
	case "ingest":
		// The first migration of a table's life takes three to four times
		// as long as the ones after it. Set-up leaves the cache two thirds
		// of the way to its migration threshold, so that the first falls
		// into the warm-up and the window holds the steady state.
		p.prefill = 13_000
	case "mixed":
		// Sized, with what set-up leaves in the cache, so that the
		// transaction stream fills it to its migration threshold about
		// three seconds into the window: one migration per window, the
		// first of the table's life, with time to start. Smaller is not safe.
		// Transactions are not subject to admission control, and a
		// migration can only begin at an instant with no scan and no
		// transaction open, so its start can lag by seconds while the
		// cache's extents fill towards twice its size: at 2 MiB
		// transactions failed with "SSD update cache full", and at 4 MiB a
		// server killed at the wrong moment could not recover ("over its
		// SSD cache budget"). At 5 MiB the stream cannot fill the extents
		// within a run.
		p.cacheMiB = 5
		p.prefill = 22_000
	case "scan", "point-read":
		// The cache holds every cached update and never migrates: reads
		// merge main data with many runs, the paper's headline case.
		p.cacheMiB = 64
		p.prefill = rows / 5
	}
	return p
}

// runSpec says what to run; runResult is what came out.
type runSpec struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	rows     int
	setups   int    // how many times the untraced run measures set-up
	masmd    string // path of the masmd binary
	workDir  string
	traceOut string // where the traced run writes its spans ("" = nowhere)
}

type measurement struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the number of samples behind the value, where it has any.
	N int `json:"n,omitempty"`
	// Note says what a reader must know to interpret the value.
	Note string `json:"note,omitempty"`
}

type share struct {
	Layer string  `json:"layer"`
	Frac  float64 `json:"frac"`
	How   string  `json:"how"` // "span" or "modelled"
}

type runResult struct {
	Workload     string                 `json:"workload"`
	Traced       bool                   `json:"traced"`
	Seed         int64                  `json:"seed"`
	Seconds      float64                `json:"seconds"`
	Metrics      map[string]measurement `json:"metrics"`
	Attempted    int64                  `json:"attempted"`
	Failed       int64                  `json:"failed"`
	VerifyErrors int64                  `json:"verify_errors"`
	Violations   []string               `json:"violations,omitempty"`
	Shares       []share                `json:"self_time_shares,omitempty"`
	WallSeconds  float64                `json:"wall_seconds"`
}

// classStats is one operation class as one phase measured it: the window
// if the workload issues that class, else the at-rest probe.
type classStats struct {
	n        int     // operations completed
	perSec   float64 // rows (scans) or operations per second
	p50      int64   // ns
	tail     int64   // ns, at the percentile tailNote names
	tailNote string
}

// summarize reduces one class's samples to percentiles over all of them,
// beside the rate its caller measured.
func summarize(lat []int64, perSec float64) classStats {
	sorted := slices.Clone(lat)
	slices.Sort(sorted)
	return classStats{
		n: len(lat), perSec: perSec, p50: quantile(sorted, 0.5), tail: tail(sorted),
		tailNote: fmt.Sprintf("p%.4g", 100*tailQuantile(len(lat))),
	}
}

type runner struct {
	spec    runSpec
	p       params
	m       *model
	bad     violations
	tr      *tracer
	clients [numConns]*client
	res     *runResult

	total samples // attempts, refusals, failures over every recorded phase
	class [numClasses]classStats
	// At-rest probes: every sample, and the rate of every round, per class.
	restLat  [numClasses][]int64
	restRate [numClasses][]float64

	lapStart time.Time
}

func run(spec runSpec) (*runResult, error) {
	began := time.Now()
	r := &runner{
		spec: spec,
		p:    paramsFor(spec.workload, spec.rows, spec.seconds),
		res: &runResult{Workload: spec.workload, Traced: spec.traced, Seed: spec.seed, Seconds: spec.seconds,
			Metrics: make(map[string]measurement)},
		lapStart: began,
	}
	if !slices.Contains(workloadNames, spec.workload) {
		return nil, fmt.Errorf("unknown workload %q (have %v)", spec.workload, workloadNames)
	}
	if err := os.MkdirAll(spec.workDir, 0o755); err != nil {
		return nil, err
	}
	var err error
	if spec.traced {
		err = r.runTraced()
	} else {
		err = r.runUntraced()
	}
	if err != nil {
		return nil, err
	}
	r.endToEnd()
	r.res.Attempted = r.total.attempts
	r.res.Failed = r.total.failures
	r.res.VerifyErrors = r.bad.n.Load()
	r.res.Violations = r.bad.first
	r.res.WallSeconds = time.Since(began).Seconds()
	return r.res, nil
}

// lap says on standard error how long the phase that just ended took.
func (r *runner) lap(phase string) {
	now := time.Now()
	fmt.Fprintf(os.Stderr, "  %-9s %6.2fs\n", phase, now.Sub(r.lapStart).Seconds())
	r.lapStart = now
}

func (r *runner) dir(i int) string {
	return filepath.Join(r.spec.workDir, fmt.Sprintf("db-%d", i))
}

func (r *runner) set(name string, value float64, n int, note string) {
	def, ok := metricByName[name]
	if !ok {
		panic("benchmark: metric " + name + " is not declared in metrics.go")
	}
	r.res.Metrics[name] = measurement{Value: value, Unit: def.unit, N: n, Note: note}
}

// setUp builds the dataset n times, in directories 0..n-1, and reports the
// median time. Every build is identical. The last is the run's own: its
// model becomes r.m. The others are spares, whose models are returned.
func (r *runner) setUp(n int) (spares []*model, err error) {
	var took []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		if r.m, err = buildDataset(r.dir(i), r.p, r.spec.seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		took = append(took, time.Since(start).Seconds())
		spares = append(spares, r.m)
	}
	spares = spares[:n-1]
	r.set("setup_s", median(took), n, "")
	// What set-up left dirty is written back now, not during the window,
	// whose fsyncs are to measure the window's own writes.
	syscall.Sync()
	r.lap("set-up")
	return spares, nil
}

func (r *runner) runUntraced() error {
	spares, err := r.setUp(r.spec.setups)
	defer func() {
		for i := 0; i < r.spec.setups; i++ {
			os.RemoveAll(r.dir(i))
		}
	}()
	if err != nil {
		return err
	}
	// One session of at-rest probes before the run's server starts, the
	// others after it has gone: as far apart in time as a run allows.
	if err := r.atRest(r.dir(0), spares[0]); err != nil {
		return err
	}
	dir := r.dir(r.spec.setups - 1)
	// The server's start on a hard-stopped directory is a real recovery.
	h, err := startChild(r.spec.masmd, dir, r.p.cacheMiB)
	if err != nil {
		return err
	}
	defer func() { // no path out of here leaves a server running
		if h != nil {
			h.crash()
		}
	}()
	if err := r.connect(h.addr, r.m); err != nil {
		return err
	}
	r.traffic(func() {}, func() {})
	rss, err := h.rssPeakMB()
	if err != nil {
		return err
	}
	r.set("server_rss_peak_mb", rss, 1, "")

	// Kill the server and bring it back: every acknowledged write must
	// have survived.
	r.disconnect()
	h.crash()
	if h, err = startChild(r.spec.masmd, dir, r.p.cacheMiB); err != nil {
		return fmt.Errorf("restart after kill: %w", err)
	}
	if err := r.connect(h.addr, r.m); err != nil {
		return err
	}
	r.finalCheck()
	r.disconnect()
	err = h.stop()
	h = nil
	if err != nil {
		return err
	}
	// What the window left dirty is written back now, not during the
	// probes' fsyncs.
	syscall.Sync()
	for i := 1; i < len(spares); i++ {
		if err := r.atRest(r.dir(i), spares[i]); err != nil {
			return err
		}
	}
	r.restSummary()
	return nil
}

// connect opens the two connections to the server at addr, which holds
// what m says. Clients keep their generator state across reconnections to a
// server with the same model, and start afresh with another.
func (r *runner) connect(addr string, m *model) error {
	for i := range r.clients {
		c, err := proto.Dial(addr)
		if err != nil {
			return err
		}
		if r.clients[i] == nil || r.clients[i].m != m {
			r.clients[i] = &client{id: i, m: m, bad: &r.bad, tr: r.tr,
				g: newKeygen(r.spec.seed*1000+int64(i)+1, r.p.rows)}
		}
		r.clients[i].c = c
	}
	return nil
}

func (r *runner) disconnect() {
	for _, cl := range r.clients {
		cl.c.Close()
	}
}

// both runs fn on each client concurrently.
func (r *runner) both(fn func(cl *client)) {
	var wg sync.WaitGroup
	for _, cl := range r.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(cl)
		}()
	}
	wg.Wait()
}

// record points the clients at a fresh sample set (nil = do not record).
func (r *runner) record(rec *samples) {
	if rec != nil {
		rec.start = time.Now()
	}
	for _, cl := range r.clients {
		cl.rec = rec
	}
}

// fold takes the finished window into the run's totals and, for each class
// it holds samples of, makes it that class's source.
func (r *runner) fold(rec *samples) {
	r.total.add(rec)
	for c := range rec.lat {
		if len(rec.lat[c]) > 0 {
			r.class[c] = summarize(rec.lat[c], rec.rate(c))
		}
	}
}

// native says which operation classes a workload's own traffic contains.
func native(workload string) [numClasses]bool {
	return [numClasses]bool{
		classWrite: workload == "ingest" || workload == "point-read",
		classGet:   workload == "point-read",
		classScan:  workload == "scan" || workload == "mixed",
		classTx:    workload == "mixed",
	}
}

// traffic is the workload itself, against a freshly recovered server: a
// warm-up and then the measured window, around which it calls before and
// after.
func (r *runner) traffic(before, after func()) *samples {
	w := r.spec.workload
	phase := func(d time.Duration, rec *samples) {
		r.record(rec)
		start := time.Now()
		deadline := start.Add(d)
		r.both(func(cl *client) {
			switch {
			case w == "ingest":
				cl.ingestLoop(deadline)
			case w == "scan":
				cl.scanLoop(deadline, r.p.span, 0)
			case w == "point-read":
				cl.pointReadLoop(deadline)
			case cl.id == 0: // mixed
				cl.scanLoop(deadline, r.p.span, mixedThink)
			default:
				cl.txLoop(start, deadline)
			}
		})
		r.record(nil)
	}
	phase(r.p.warmup, nil)
	r.lap("warm-up")

	rec := &samples{slices: int(r.p.window/sliceLen) &^ 1}
	before()
	stop := make(chan struct{})
	var flipping sync.WaitGroup
	if r.tr != nil {
		flipping.Add(1)
		go func() {
			defer flipping.Done()
			r.flipTracing(rec.slices, stop)
		}()
	}
	phase(r.p.window, rec)
	after()
	close(stop)
	flipping.Wait()
	r.fold(rec)
	r.lap("window")
	return rec
}

// flipTracing turns tracing on for every odd slice of the window.
func (r *runner) flipTracing(slices int, stop chan struct{}) {
	start := time.Now()
	defer r.tr.on.Store(false)
	for i := 1; i <= slices; i++ {
		select {
		case <-stop:
			return
		case <-time.After(time.Until(start.Add(time.Duration(i) * sliceLen))):
			r.tr.on.Store(i&1 == 1 && i < slices)
		}
	}
}

// restRounds is how many measured rounds of each class one session of
// at-rest probes holds.
const restRounds = 3

// atRest measures the operation classes the workload's own traffic does not
// contain, because the driver wants every end-to-end metric from every
// workload and none of them zero (README, "The driver's contract"). It does
// so on a spare copy of the dataset, served by a masmd of its own that is
// gone before the run's server starts, so that the server the window runs
// against has seen nothing but the workload. What these numbers mean is
// "this operation, with nothing else going on, on this workload's dataset".
//
// One call is one session on one spare: for each class a thirtieth of the
// window unmeasured (first touches), then restRounds rounds of a thirtieth
// each. The machine's speed drifts over seconds and the engine pauses to
// flush, so a class's rate is the median over the rounds of all sessions
// (restSummary), which run at both ends of the run.
func (r *runner) atRest(dir string, m *model) error {
	// The spare's server gets masmd's default cache, which nothing here can
	// fill: transactions are not subject to admission control, and run back
	// to back against ingest's 2 MiB they overran the cache's budget once in
	// some thirty runs ("table 0 over its SSD cache budget").
	const defaultCacheMiB = 256
	h, err := startChild(r.spec.masmd, dir, defaultCacheMiB)
	if err != nil {
		return err
	}
	defer h.crash()
	// The run's own clients hold what the final check needs.
	own := r.clients
	r.clients = [numConns]*client{}
	defer func() { r.clients = own }()
	if err := r.connect(h.addr, m); err != nil {
		return err
	}
	defer r.disconnect()
	has := native(r.spec.workload)
	round := r.p.window / 30
	probe := func(class int, loop func(cl *client, deadline time.Time)) {
		if has[class] {
			return
		}
		r.both(func(cl *client) { loop(cl, time.Now().Add(round)) })
		for i := 0; i < restRounds; i++ {
			rec := &samples{}
			r.record(rec)
			r.both(func(cl *client) { loop(cl, time.Now().Add(round)) })
			r.record(nil)
			r.total.add(rec)
			if rec.last[class] > 0 {
				r.restLat[class] = append(r.restLat[class], rec.lat[class]...)
				r.restRate[class] = append(r.restRate[class], rec.rate(class))
			}
		}
	}
	// Reads first, on exactly what set-up left.
	probe(classGet, func(cl *client, deadline time.Time) {
		for time.Now().Before(deadline) {
			cl.get(cl.readKey())
		}
	})
	probe(classScan, func(cl *client, deadline time.Time) { cl.scanLoop(deadline, r.p.span, 0) })
	probe(classWrite, (*client).ingestLoop)
	probe(classTx, func(cl *client, deadline time.Time) {
		for cl.id == 1 && time.Now().Before(deadline) {
			cl.tx(time.Now(), cl.txKeys())
		}
	})
	r.lap("at rest")
	return nil
}

// restSummary makes the at-rest rounds the source of the classes they
// measured: the median of the rounds' rates, and percentiles over the
// samples of all rounds.
func (r *runner) restSummary() {
	for c, lat := range r.restLat {
		if len(lat) > 0 {
			r.class[c] = summarize(lat, median(r.restRate[c]))
			fmt.Fprintf(os.Stderr, "  at rest, %s: rounds of %.0f per second\n", classNames[c], r.restRate[c])
		}
	}
}

// finalCheck reads back, from the restarted and idle server, a sample of
// the keys the run wrote and then the whole table, and holds both against
// the model. Nothing is in flight, so every row must match exactly.
func (r *runner) finalCheck() {
	r.lap("restart")
	written := r.m.written
	for _, cl := range r.clients {
		written = append(written, cl.written...)
	}
	r.both(func(cl *client) {
		rng := rand.New(rand.NewSource(r.spec.seed + int64(cl.id)))
		for i := cl.id; i < min(r.p.checkKeys, len(written)); i += numConns {
			cl.get(written[rng.Intn(len(written))])
		}
	})
	last := uint64(len(r.m.state) - 1)
	want, unknown := r.m.present()
	got := int(r.clients[0].scan(0, last))
	if got < want || got > want+unknown {
		r.bad.add("full scan returned %d rows, model holds %d (+%d unknown)", got, want, unknown)
	}
	r.lap("check")
}

// endToEnd derives the end-to-end metrics from the class sources.
func (r *runner) endToEnd() {
	for c := range r.class {
		if r.class[c].n == 0 { // a traced run has no at-rest probes
			r.class[c].tailNote = "the workload issues none"
		}
	}
	w, g, s, t := r.class[classWrite], r.class[classGet], r.class[classScan], r.class[classTx]
	r.set("write_ops_s", w.perSec, w.n, "")
	r.set("write_p50_us", float64(w.p50)/1e3, w.n, "")
	r.set("write_p99_us", float64(w.tail)/1e3, w.n, w.tailNote)
	r.set("get_ops_s", g.perSec, g.n, "")
	r.set("get_p50_us", float64(g.p50)/1e3, g.n, "")
	r.set("get_p99_us", float64(g.tail)/1e3, g.n, g.tailNote)
	r.set("scan_rows_s", s.perSec, s.n, "")
	r.set("scan_p50_ms", float64(s.p50)/1e6, s.n, "")
	r.set("scan_p99_ms", float64(s.tail)/1e6, s.n, s.tailNote)
	r.set("tx_p50_ms", float64(t.p50)/1e6, t.n, "")
	r.set("tx_p99_ms", float64(t.tail)/1e6, t.n, t.tailNote)
	bad := float64(r.total.failures+r.total.refusals) / float64(max(r.total.attempts, 1))
	r.set("ok_frac", 1-bad, int(r.total.attempts), "")
	r.set("fail_frac", bad, int(r.total.attempts), "")
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quantile reads the q-quantile off a sorted sample.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

// tailQuantile is the highest quantile, up to 0.99, that still has ten
// samples beyond it: p99 from 1000 samples on, less below that.
func tailQuantile(n int) float64 {
	if n <= 20 {
		return 0.5
	}
	return min(0.99, float64(n-11)/float64(n-1))
}

func tail(sorted []int64) int64 { return quantile(sorted, tailQuantile(len(sorted))) }
