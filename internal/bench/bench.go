// Package bench regenerates every table and figure of the paper's
// evaluation (§4) on the simulated devices. Each driver returns a Result
// whose rows mirror the series the paper plots; cmd/masmbench prints them
// and EXPERIMENTS.md records the comparison against the paper's numbers.
//
// Geometry is scaled (see DESIGN.md §1): the shapes under study are
// ratios — normalized scan times, relative update rates — which depend on
// the cache:table ratio, page-level constants and run counts, all of which
// are preserved; absolute capacities are reduced so experiments run in
// memory.
package bench

import (
	"fmt"
	"io"
	"strings"

	"masm/internal/inplace"
	"masm/internal/masm"
	"masm/internal/sim"
	"masm/internal/storage"
	"masm/internal/table"
	"masm/internal/update"
	"masm/internal/workload"
)

// Options scales the experiments.
type Options struct {
	// TableBytes is the main table size (the paper's 100 GB, scaled).
	TableBytes int64
	// CacheBytes is the SSD update-cache size (the paper's 4 GB, scaled
	// to keep cache:table ≈ 1/16, within the paper's 1–10 % band).
	CacheBytes int64
	// Seed drives all pseudo-randomness.
	Seed int64
	// SmallRanges and LargeRanges are the per-point repetition counts
	// (the paper uses 100 and 10).
	SmallRanges int
	LargeRanges int
}

// DefaultOptions mirrors the paper's setup at 1/400 scale.
func DefaultOptions() Options {
	return Options{
		TableBytes:  256 << 20,
		CacheBytes:  16 << 20,
		Seed:        1,
		SmallRanges: 20,
		LargeRanges: 3,
	}
}

// ShortOptions is a reduced geometry for quick runs (go test -short).
func ShortOptions() Options {
	return Options{
		TableBytes:  64 << 20,
		CacheBytes:  4 << 20,
		Seed:        1,
		SmallRanges: 8,
		LargeRanges: 2,
	}
}

// Result is one regenerated table/figure.
type Result struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (r *Result) AddRow(cells ...string) { r.Rows = append(r.Rows, cells) }

// Format renders the result as an aligned text table.
func (r *Result) Format(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	line(r.Header)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, n int) string {
	if len(s) >= n {
		return s
	}
	return s + strings.Repeat(" ", n-len(s))
}

// env is a loaded synthetic experiment environment.
type env struct {
	opts   Options
	hdd    *sim.Device
	ssd    *sim.Device
	tbl    *table.Table
	ssdVol *storage.Volume
	maxKey uint64
	// bytesPerKey converts a byte-range to a key span.
	bytesPerKey float64
}

// rowsFor computes how many records fill tableBytes at the default page
// layout.
func rowsFor(tableBytes int64) int {
	cfg := table.DefaultConfig()
	recDisk := 10 + 8 + workload.BodySize // slot header + key + body
	perPage := int(float64(cfg.PageSize-16) * cfg.FillFraction / float64(recDisk))
	return int(tableBytes / int64(cfg.PageSize) * int64(perPage))
}

// newEnv loads the synthetic table and allocates an SSD volume (2x
// over-provisioned, as real SSDs are).
func newEnv(opts Options) (*env, error) {
	e := &env{opts: opts}
	e.hdd = sim.NewDevice(sim.Barracuda7200())
	e.ssd = sim.NewDevice(sim.IntelX25E())
	vol, err := storage.NewVolume(e.hdd, 0, opts.TableBytes*2+(64<<20))
	if err != nil {
		return nil, err
	}
	rows := rowsFor(opts.TableBytes)
	e.tbl, err = workload.LoadSynthetic(vol, table.DefaultConfig(), rows, workload.BodySize)
	if err != nil {
		return nil, err
	}
	e.maxKey = uint64(rows) * 2
	e.bytesPerKey = float64(e.tbl.SizeBytes()) / float64(e.maxKey)
	e.ssdVol, err = storage.NewVolume(e.ssd, 0, opts.CacheBytes*2)
	if err != nil {
		return nil, err
	}
	return e, nil
}

// masmConfig is the scaled MaSM-M configuration for an update cache of
// cacheBytes: 4 KB SSD accounting pages (so M stays realistic at small
// cache sizes), 64 KB run I/O, fine-grain 4 KB index entries.
// Coarse-grain scans subsample to CoarseGranularity.
func masmConfig(cacheBytes int64) masm.Config {
	cfg := masm.DefaultConfig(cacheBytes)
	cfg.SSDPage = 4 << 10
	cfg.Run.IOSize = 64 << 10
	cfg.Run.IndexGranularity = 4 << 10
	cfg.ScanGranularity = 4 << 10
	return cfg
}

// CoarseGranularity reproduces the paper's coarse-grain run index at this
// scale: the per-run read volume of a small range scan must remain large
// relative to the range (the paper reads 64 KB from each of 128 runs of a
// 4 GB cache; our scaled cache holds ~32 larger runs, so the coarse entry
// covers a proportionally larger span).
const CoarseGranularity = 256 << 10

// newStore builds a MaSM store over the environment's table.
func (e *env) newStore(alpha float64) (*masm.Store, error) {
	cfg := masmConfig(e.opts.CacheBytes)
	cfg.Alpha = alpha
	return newMaSMStore(cfg, e.tbl, e.ssdVol)
}

// newMaSMStore builds every experiment's MaSM store: its update cache is
// vol, and its runs come from the one partition of a SharedAlloc over the
// whole volume — the engine's run allocator, serving one table. Every
// volume here is twice its cache, as the engine caps a table at twice its
// budget: the over-provisioned space lets 2-pass merges write their output
// before the input runs are released, as real SSDs over-provision flash.
func newMaSMStore(cfg masm.Config, tbl *table.Table, vol *storage.Volume) (*masm.Store, error) {
	alloc := masm.NewSharedAlloc(vol.Size()).Partition(0, vol.Size())
	return masm.NewStore(cfg, tbl, vol, &masm.Oracle{}, nil, alloc, nil)
}

// fill applies uniformly distributed updates to the store until its cache
// holds the given fraction of capacity.
func fillStore(store *masm.Store, gen *workload.UpdateGen, fill float64) (sim.Time, error) {
	var now sim.Time
	target := fill * float64(store.Config().SSDCapacity)
	for float64(store.CachedBytes()) < target {
		rec := gen.Next()
		end, err := store.ApplyAuto(now, rec)
		if err != nil {
			return now, err
		}
		now = end
	}
	return now, nil
}

// quiesce returns the earliest time at which both devices are idle, and
// parks the disk head far from the table — the analogue of the paper's
// "reading an irrelevant large file before every experiment" (§4.1) — so
// neither queueing nor head locality leaks between measurements.
func (e *env) quiesce(after sim.Time) sim.Time {
	t := sim.MaxTime(after, e.hdd.BusyUntil())
	t = sim.MaxTime(t, e.ssd.BusyUntil())
	c := e.hdd.Read(t, e.opts.TableBytes*2, 1<<20)
	return c.End
}

// keySpan converts a byte range size to a key span.
func (e *env) keySpan(rangeBytes int64) uint64 {
	span := uint64(float64(rangeBytes) / e.bytesPerKey)
	if span < 2 {
		span = 2
	}
	if span > e.maxKey {
		span = e.maxKey
	}
	return span
}

// pureScan measures a plain range scan (no updates anywhere).
func (e *env) pureScan(at sim.Time, begin, end uint64) (sim.Duration, error) {
	sc := e.tbl.NewScanner(at, begin, end)
	for {
		if _, ok := sc.Next(); !ok {
			break
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return sc.Time().Sub(at), nil
}

// scanActor steps a table scanner one disk I/O at a time, so it can be
// interleaved with an update stream.
type scanActor struct {
	sc   *table.Scanner
	done bool
	rows int64
}

func (a *scanActor) Time() sim.Time { return a.sc.Time() }
func (a *scanActor) Step() bool {
	before := a.sc.Time()
	for a.sc.Time() == before {
		if _, ok := a.sc.Next(); !ok {
			a.done = true
			return false
		}
		a.rows++
	}
	return true
}

// measureScanWithInPlaceStream measures a range scan of [begin,end] while
// a saturating in-place update stream hammers the same disk, starting the
// scan at the stream's current position in virtual time. The stream keeps
// running; it is stepped in conservative minimum-time order with the scan.
func measureScanWithInPlaceStream(tbl *table.Table, stream *inplace.Stream,
	begin, end uint64) (sim.Duration, error) {
	start := stream.Time()
	sc := tbl.NewScanner(start, begin, end)
	actor := &scanActor{sc: sc}
	for !actor.done {
		if actor.Time() <= stream.Time() {
			actor.Step()
		} else if !stream.Step() {
			// Stream exhausted (should not happen for unbounded gens);
			// finish the scan alone.
			for actor.Step() {
			}
		}
	}
	if err := stream.Err(); err != nil {
		return 0, err
	}
	return sc.Time().Sub(start), nil
}

// avg returns the mean of a duration slice in seconds.
func avgSeconds(ds []sim.Duration) float64 {
	var total float64
	for _, d := range ds {
		total += d.Seconds()
	}
	return total / float64(len(ds))
}

func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f0(v float64) string  { return fmt.Sprintf("%.0f", v) }
func sec(v float64) string { return fmt.Sprintf("%.3fs", v) }

// modGen adapts an UpdateGen to a modify-only generator for in-place
// streams (geometry-preserving).
func modGen(seed int64, maxKey uint64) func(i int64) update.Record {
	return workload.NewUniform(seed, maxKey, workload.BodySize).ModifyOnly()
}
