package bench

import (
	"fmt"

	"masm/internal/lsm"
	"masm/internal/sim"
	"masm/internal/storage"
	"masm/internal/workload"
)

// LSMWrites reproduces the paper's §2.3 analysis: SSD writes per update
// for LSM trees of h = 1..5 levels at the paper's geometry (4 GB flash,
// 16 MB memory), against MaSM's 1–2.
func LSMWrites(opts Options) (*Result, error) {
	res := &Result{
		ID:     "lsm",
		Title:  "LSM-on-SSD writes per update entry (4GB flash, 16MB memory)",
		Header: []string{"levels h", "size ratio r", "writes/update"},
	}
	for h := 1; h <= 5; h++ {
		cfg := lsm.Config{MemBytes: 16 << 20, SSDBytes: 4 << 30, Levels: h}
		res.AddRow(fmt.Sprintf("%d", h), f1(cfg.Ratio()), f1(cfg.TheoreticalWritesPerUpdate()))
	}
	opt := lsm.OptimalLevels(16<<20, 4<<30)
	res.AddRow("MaSM-M", "-", "1.75")
	res.AddRow("MaSM-2M", "-", "1.00")
	res.Notes = append(res.Notes,
		fmt.Sprintf("optimal h=%d; paper: 2-level LSM ~128 writes, optimal (h=4) ~17, vs MaSM's 1-2", opt))
	return res, nil
}

// HDDCache reproduces the paper's §4.2 ablation: using a second disk
// instead of an SSD as the update cache. Small range scans collapse under
// the disk's random-read latency (paper: 28.8× at 1 MB, 4.7× at 10 MB).
func HDDCache(opts Options) (*Result, error) {
	res := &Result{
		ID:     "hddcache",
		Title:  "MaSM with a disk as update cache (normalized to scan w/o updates)",
		Header: []string{"range", "SSD cache", "HDD cache"},
	}
	// SSD-cached store.
	seSSD, err := newFilledStore(opts, 1, 0.5)
	if err != nil {
		return nil, err
	}
	// HDD-cached store: identical second disk as the cache device.
	eH, err := newEnv(opts)
	if err != nil {
		return nil, err
	}
	cacheHDD := sim.NewDevice(sim.Barracuda7200())
	hddVol, err := storage.NewVolume(cacheHDD, 0, opts.CacheBytes*2)
	if err != nil {
		return nil, err
	}
	storeH, err := newMaSMStore(masmConfig(opts.CacheBytes), eH.tbl, hddVol)
	if err != nil {
		return nil, err
	}
	gen := workload.NewUniform(opts.Seed, eH.maxKey, workload.BodySize)
	fillEndH, err := fillStore(storeH, gen, 0.5)
	if err != nil {
		return nil, err
	}
	for _, size := range []int64{1 << 20, 10 << 20} {
		span := seSSD.env.keySpan(size)
		picker := workload.NewRangePicker(opts.Seed+int64(size), seSSD.env.maxKey, span)
		var pure, ssdT, hddT []sim.Duration
		for r := 0; r < opts.SmallRanges; r++ {
			begin, end := picker.Next()
			d, err := seSSD.env.pureScan(seSSD.env.quiesce(seSSD.fillEnd), begin, end)
			if err != nil {
				return nil, err
			}
			pure = append(pure, d)
			d, err = masmScan(seSSD.store, seSSD.env.quiesce(seSSD.fillEnd), begin, end)
			if err != nil {
				return nil, err
			}
			ssdT = append(ssdT, d)
			hStart := sim.MaxTime(sim.MaxTime(fillEndH, eH.hdd.BusyUntil()), cacheHDD.BusyUntil())
			d, err = masmScan(storeH, hStart, begin, end)
			if err != nil {
				return nil, err
			}
			hddT = append(hddT, d)
		}
		base := avgSeconds(pure)
		res.AddRow(sizeLabel(size, opts.TableBytes),
			f2(avgSeconds(ssdT)/base), f2(avgSeconds(hddT)/base))
	}
	res.Notes = append(res.Notes,
		"paper: disk-based cache slows 1MB scans 28.8x and 10MB scans 4.7x; SSD is essential")
	return res, nil
}

// AlphaSweep reproduces the §3.4 memory/write trade-off: MaSM-αM's memory
// footprint and measured SSD writes per update across α (Theorem 3.3).
func AlphaSweep(opts Options) (*Result, error) {
	res := &Result{
		ID:     "alpha",
		Title:  "MaSM-alphaM: memory footprint vs SSD writes per update",
		Header: []string{"alpha", "memory", "S pages", "writes/upd (measured)", "writes/upd (theorem)"},
	}
	for _, alpha := range []float64{0.5, 0.75, 1, 1.5, 2} {
		e, err := newEnv(opts)
		if err != nil {
			return nil, err
		}
		cfg := masmConfig(opts.CacheBytes)
		cfg.Alpha = alpha
		if err := cfg.Validate(); err != nil {
			continue // below 2/cbrt(M) for this geometry
		}
		store, err := newMaSMStore(cfg, e.tbl, e.ssdVol)
		if err != nil {
			return nil, err
		}
		gen := workload.NewUniform(opts.Seed, e.maxKey, workload.BodySize)
		var now sim.Time
		// Fill while issuing tiny queries so 2-pass merges trigger.
		for store.Fill() < 0.85 {
			for i := 0; i < 400; i++ {
				end, err := store.ApplyAuto(now, gen.Next())
				if err != nil {
					return nil, err
				}
				now = end
			}
			q, err := store.NewQuery(now, 0, 10, nil)
			if err != nil {
				return nil, err
			}
			q.Drain()
			q.Close()
		}
		res.AddRow(f2(alpha), memLabel(int64(cfg.MemoryBytes())), fmt.Sprintf("%d", cfg.SPages()),
			f2(store.Stats().WritesPerUpdate()), f2(cfg.PredictedWritesPerUpdate()))
	}
	res.Notes = append(res.Notes, "theorem 3.3: writes/update ~= 2 - 0.25*alpha^2 (worst case)")
	return res, nil
}

// GranularitySweep is the §3.5 run-index granularity ablation: small-range
// scan overhead and index memory across granularities.
func GranularitySweep(opts Options) (*Result, error) {
	res := &Result{
		ID:     "granularity",
		Title:  "run-index granularity: 4KB-range scan slowdown vs index size",
		Header: []string{"granularity", "slowdown @4KB", "slowdown @10MB", "index entries"},
	}
	se, err := newFilledStore(opts, 1, 0.5)
	if err != nil {
		return nil, err
	}
	entries := 0
	_ = entries
	for _, gran := range []int{4 << 10, 16 << 10, 64 << 10, 256 << 10} {
		se.store.SetScanGranularity(gran)
		var small, large []sim.Duration
		var pureS, pureL []sim.Duration
		for _, probe := range []struct {
			size int64
			out  *[]sim.Duration
			pure *[]sim.Duration
			reps int
		}{
			{4 << 10, &small, &pureS, opts.SmallRanges},
			{10 << 20, &large, &pureL, opts.LargeRanges},
		} {
			span := se.env.keySpan(probe.size)
			picker := workload.NewRangePicker(opts.Seed+int64(gran)+probe.size, se.env.maxKey, span)
			for r := 0; r < probe.reps; r++ {
				begin, end := picker.Next()
				d, err := se.env.pureScan(se.env.quiesce(se.fillEnd), begin, end)
				if err != nil {
					return nil, err
				}
				*probe.pure = append(*probe.pure, d)
				d, err = masmScan(se.store, se.env.quiesce(se.fillEnd), begin, end)
				if err != nil {
					return nil, err
				}
				*probe.out = append(*probe.out, d)
			}
		}
		// Effective entries at this granularity: built entries divided by
		// the subsampling step.
		step := gran / (4 << 10)
		res.AddRow(sizeLabel(int64(gran), 1<<62),
			f2(avgSeconds(small)/avgSeconds(pureS)),
			f2(avgSeconds(large)/avgSeconds(pureL)),
			fmt.Sprintf("~1/%d of fine", step))
	}
	res.Notes = append(res.Notes,
		"paper 3.5: coarser granularity saves memory, finer makes small scans precise")
	return res, nil
}
