package bench

import (
	"fmt"

	"masm/internal/inplace"
	"masm/internal/iu"
	"masm/internal/masm"
	"masm/internal/sim"
	"masm/internal/workload"
)

// rangeSizes returns the swept range sizes (bytes), the paper's 4 KB →
// whole-table axis scaled to the table size.
func rangeSizes(tableBytes int64) []int64 {
	sizes := []int64{4 << 10, 100 << 10, 1 << 20, 10 << 20, 100 << 20, 1 << 30, 10 << 30, 100 << 30}
	out := sizes[:0]
	for _, s := range sizes {
		if s < tableBytes {
			out = append(out, s)
		}
	}
	return append(out, tableBytes)
}

func sizeLabel(b, tableBytes int64) string {
	if b == tableBytes {
		return "full"
	}
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%dGB", b>>30)
	case b >= 1<<20:
		return fmt.Sprintf("%dMB", b>>20)
	default:
		return fmt.Sprintf("%dKB", b>>10)
	}
}

// Fig9 compares the impact of the online update schemes on range scans,
// normalized to scans without updates (paper Fig 9): in-place updates,
// Indexed Updates, MaSM with coarse-grain index, MaSM with fine-grain
// index. The cache is 50 % full, matching the paper's steady state.
func Fig9(opts Options) (*Result, error) {
	res := &Result{
		ID:     "fig9",
		Title:  "range scan slowdown by update scheme (normalized to scan w/o updates)",
		Header: []string{"range", "in-place", "IU", "masm-coarse", "masm-fine"},
	}
	sizes := rangeSizes(opts.TableBytes)

	// --- MaSM environment: one store, filled to 50 %, two granularities.
	eM, err := newEnv(opts)
	if err != nil {
		return nil, err
	}
	store, err := eM.newStore(1)
	if err != nil {
		return nil, err
	}
	gen := workload.NewUniform(opts.Seed, eM.maxKey, workload.BodySize)
	fillEnd, err := fillStore(store, gen, 0.5)
	if err != nil {
		return nil, err
	}
	// Warm up scan-setup work (flush + merges) before measuring.
	if wq, err := store.NewQuery(fillEnd, 0, 1, nil); err != nil {
		return nil, err
	} else {
		if _, _, err := wq.Drain(); err != nil {
			return nil, err
		}
		fillEnd = wq.Time()
		wq.Close()
	}

	// --- IU environment: same fill volume of cached updates.
	eIU, err := newEnv(opts)
	if err != nil {
		return nil, err
	}
	iuStore := iu.NewStore(eIU.tbl, eIU.ssdVol)
	genIU := workload.NewUniform(opts.Seed, eIU.maxKey, workload.BodySize)
	var iuNow sim.Time
	for iuStore.CachedBytes() < opts.CacheBytes/2 {
		if iuNow, err = iuStore.ApplyAuto(iuNow, genIU.Next()); err != nil {
			return nil, err
		}
	}

	// --- In-place environment: a saturating modify stream on the disk.
	eIP, err := newEnv(opts)
	if err != nil {
		return nil, err
	}
	ipStream := inplace.NewStream(inplace.NewUpdater(eIP.tbl), modGen(opts.Seed+7, eIP.maxKey), 0, -1)

	for _, size := range sizes {
		span := eM.keySpan(size)
		reps := opts.SmallRanges
		if size >= 100<<20 {
			reps = opts.LargeRanges
		}
		picker := workload.NewRangePicker(opts.Seed+int64(size), eM.maxKey, span)
		var pure, ip, iuT, coarse, fine []sim.Duration
		for r := 0; r < reps; r++ {
			begin, end := picker.Next()

			d, err := eM.pureScan(eM.quiesce(fillEnd), begin, end)
			if err != nil {
				return nil, err
			}
			pure = append(pure, d)

			d, err = measureScanWithInPlaceStream(eIP.tbl, ipStream, begin, end)
			if err != nil {
				return nil, err
			}
			ip = append(ip, d)

			iuStart := eIU.quiesce(iuNow)
			qIU := iuStore.NewQuery(iuStart, begin, end)
			if _, end2, err := qIU.Drain(); err != nil {
				return nil, err
			} else {
				iuT = append(iuT, end2.Sub(iuStart))
			}

			store.SetScanGranularity(CoarseGranularity)
			d, err = masmScan(store, eM.quiesce(fillEnd), begin, end)
			if err != nil {
				return nil, err
			}
			coarse = append(coarse, d)

			store.SetScanGranularity(4 << 10)
			d, err = masmScan(store, eM.quiesce(fillEnd), begin, end)
			if err != nil {
				return nil, err
			}
			fine = append(fine, d)
		}
		base := avgSeconds(pure)
		res.AddRow(sizeLabel(size, opts.TableBytes),
			f2(avgSeconds(ip)/base), f2(avgSeconds(iuT)/base),
			f2(avgSeconds(coarse)/base), f2(avgSeconds(fine)/base))
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("table %dMB, cache %dMB 50%% full; paper: in-place 1.7-3.7x, IU 1.1-3.8x, masm-fine <=1.07x",
			opts.TableBytes>>20, opts.CacheBytes>>20))
	return res, nil
}

// masmScan runs one MaSM query to completion and returns its duration.
func masmScan(store *masm.Store, at sim.Time, begin, end uint64) (sim.Duration, error) {
	q, err := store.NewQuery(at, begin, end, nil)
	if err != nil {
		return 0, err
	}
	defer q.Close()
	if _, _, err := q.Drain(); err != nil {
		return 0, err
	}
	return q.Time().Sub(at), nil
}
