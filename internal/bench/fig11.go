package bench

import (
	"fmt"

	"masm/internal/inplace"
	"masm/internal/sim"
	"masm/internal/workload"
)

// Fig11 measures MaSM's update migration: a full table scan that also
// applies the cached updates and writes every page back in place, compared
// to a pure full scan (paper Fig 11: ≈2.3× a pure scan).
func Fig11(opts Options) (*Result, error) {
	res := &Result{
		ID:     "fig11",
		Title:  "migration cost relative to a pure table scan",
		Header: []string{"operation", "time", "normalized"},
	}
	se, err := newFilledStore(opts, 1, 0.99)
	if err != nil {
		return nil, err
	}
	pure, err := se.env.pureScan(se.env.quiesce(se.fillEnd), 0, ^uint64(0))
	if err != nil {
		return nil, err
	}
	start := se.env.quiesce(se.fillEnd)
	end, rep, err := se.store.Migrate(start)
	if err != nil {
		return nil, err
	}
	mig := end.Sub(start)
	res.AddRow("scan", sec(pure.Seconds()), "1.00")
	res.AddRow("scan w/ migration", sec(mig.Seconds()), f2(mig.Seconds()/pure.Seconds()))
	res.Notes = append(res.Notes,
		fmt.Sprintf("migrated %d runs, %d records, %d pages written; paper: 2.3x",
			rep.RunsMigrated, rep.RecordsApplied, rep.PagesWritten))
	return res, nil
}

// Fig12 measures sustained update throughput (paper Fig 12): disk random
// writes, in-place read-modify-writes, and MaSM with three SSD cache
// sizes. MaSM runs updates as fast as possible with continuous table scans
// migrating at a 50 % threshold; doubling the cache halves migration
// frequency and so doubles the sustained rate.
func Fig12(opts Options) (*Result, error) {
	res := &Result{
		ID:     "fig12",
		Title:  "sustained updates per second",
		Header: []string{"scheme", "upd/s"},
	}
	// Disk random 4 KB writes, back to back.
	e, err := newEnv(opts)
	if err != nil {
		return nil, err
	}
	var now sim.Time
	rng := workload.NewRangePicker(opts.Seed, uint64(opts.TableBytes-(4<<10)), 1)
	const nWrites = 500
	for i := 0; i < nWrites; i++ {
		off, _ := rng.Next()
		c := e.hdd.Write(now, int64(off), 4<<10)
		now = c.End
	}
	res.AddRow("disk random writes", f0(nWrites/now.Seconds()))

	// In-place updates (read-modify-write), measured standalone as in the
	// paper ("we obtain the best update rate by performing only updates").
	eIP, err := newEnv(opts)
	if err != nil {
		return nil, err
	}
	rate, err := inplace.SustainedRate(inplace.NewUpdater(eIP.tbl), modGen(opts.Seed, eIP.maxKey), 300)
	if err != nil {
		return nil, err
	}
	res.AddRow("in-place updates", f0(rate))

	// MaSM at cache sizes C/2, C, 2C: in steady state each table scan
	// migrates the 50 % of the cache that filled while the previous scan
	// ran; the sustained rate is those updates divided by the
	// scan-with-migration time.
	for _, mult := range []float64{0.5, 1, 2} {
		o := opts
		o.CacheBytes = int64(float64(opts.CacheBytes) * mult)
		se, err := newFilledStore(o, 1, 0.5)
		if err != nil {
			return nil, err
		}
		migrated := se.store.Stats().UpdatesAccepted
		start := se.fillEnd
		end, _, err := se.store.Migrate(start)
		if err != nil {
			return nil, err
		}
		rate := float64(migrated) / end.Sub(start).Seconds()
		res.AddRow(fmt.Sprintf("MaSM %dMB SSD", o.CacheBytes>>20), f0(rate))
	}
	res.Notes = append(res.Notes,
		"paper: 68 (random writes), 48 (in-place), 3472/6631/12498 (MaSM 2/4/8GB) - orders of magnitude, doubling SSD doubles rate")
	return res, nil
}

// Fig13 injects per-record CPU cost into a mid-size range scan and shows
// MaSM's merge overhead is invisible whether the query is I/O- or
// CPU-bound (paper Fig 13).
func Fig13(opts Options) (*Result, error) {
	res := &Result{
		ID:     "fig13",
		Title:  "scan time vs injected CPU cost per record (10% table range)",
		Header: []string{"us/record", "scan w/o updates", "MaSM", "ratio"},
	}
	se, err := newFilledStore(opts, 1, 0.5)
	if err != nil {
		return nil, err
	}
	span := se.env.keySpan(opts.TableBytes / 10)
	picker := workload.NewRangePicker(opts.Seed, se.env.maxKey, span)
	begin, end := picker.Next()
	for _, us := range []float64{0, 0.5, 1.0, 1.5, 2.0, 2.5} {
		cpu := sim.Duration(us * float64(sim.Microsecond))
		// Pure scan with injected CPU: completion is max(io, cpu-serial).
		scanStart := se.env.quiesce(se.fillEnd)
		sc := se.env.tbl.NewScanner(scanStart, begin, end)
		var rows int64
		for {
			if _, ok := sc.Next(); !ok {
				break
			}
			rows++
		}
		io := sc.Time().Sub(scanStart)
		cpuTotal := sim.Duration(rows) * cpu
		pure := io
		if cpuTotal > pure {
			pure = cpuTotal
		}
		qStart := se.env.quiesce(se.fillEnd)
		q, err := se.store.NewQuery(qStart, begin, end, nil)
		if err != nil {
			return nil, err
		}
		q.CPUPerRecord = cpu
		if _, _, err := q.Drain(); err != nil {
			return nil, err
		}
		masmT := q.Time().Sub(qStart)
		q.Close()
		res.AddRow(f1(us), sec(pure.Seconds()), sec(masmT.Seconds()), f2(masmT.Seconds()/pure.Seconds()))
	}
	res.Notes = append(res.Notes,
		"paper: flat until ~1.5us (I/O-bound), then linear; MaSM indistinguishable from pure scans throughout")
	return res, nil
}
