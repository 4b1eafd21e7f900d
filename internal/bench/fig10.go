package bench

import (
	"masm/internal/masm"
	"masm/internal/sim"
	"masm/internal/workload"
)

// Fig10 measures MaSM range scans (fine-grain index) while varying how
// full the SSD update cache is — 25/50/75/99 % — with migration disabled
// (paper Fig 10: at most 3–7 % overhead at 4 KB ranges, comparable to
// pure scans everywhere).
func Fig10(opts Options) (*Result, error) {
	res := &Result{
		ID:     "fig10",
		Title:  "MaSM scan slowdown vs cache fill (fine-grain index, normalized)",
		Header: []string{"range", "25% full", "50% full", "75% full", "99% full"},
	}
	fills := []float64{0.25, 0.50, 0.75, 0.99}
	sizes := rangeSizes(opts.TableBytes)

	envs := make([]*storeEnv, len(fills))
	for i, fill := range fills {
		se, err := newFilledStore(opts, 1, fill)
		if err != nil {
			return nil, err
		}
		envs[i] = se
	}

	for _, size := range sizes {
		span := envs[0].env.keySpan(size)
		reps := opts.SmallRanges
		if size >= 100<<20 {
			reps = opts.LargeRanges
		}
		row := []string{sizeLabel(size, opts.TableBytes)}
		for _, se := range envs {
			picker := workload.NewRangePicker(opts.Seed+int64(size), se.env.maxKey, span)
			var pure, masmT []sim.Duration
			for r := 0; r < reps; r++ {
				begin, end := picker.Next()
				d, err := se.env.pureScan(se.env.quiesce(se.fillEnd), begin, end)
				if err != nil {
					return nil, err
				}
				pure = append(pure, d)
				d, err = masmScan(se.store, se.env.quiesce(se.fillEnd), begin, end)
				if err != nil {
					return nil, err
				}
				masmT = append(masmT, d)
			}
			row = append(row, f2(avgSeconds(masmT)/avgSeconds(pure)))
		}
		res.AddRow(row...)
	}
	res.Notes = append(res.Notes, "paper: 0.97-1.07x at all fills and range sizes (3-7% at 4KB)")
	return res, nil
}

// storeEnv bundles an environment with a filled MaSM store.
type storeEnv struct {
	env     *env
	store   *masm.Store
	fillEnd sim.Time
}

// newFilledStore builds an env + MaSM store filled to the given fraction.
func newFilledStore(opts Options, alpha, fill float64) (*storeEnv, error) {
	e, err := newEnv(opts)
	if err != nil {
		return nil, err
	}
	store, err := e.newStore(alpha)
	if err != nil {
		return nil, err
	}
	gen := workload.NewUniform(opts.Seed, e.maxKey, workload.BodySize)
	end, err := fillStore(store, gen, fill)
	if err != nil {
		return nil, err
	}
	// Warm up: one throwaway query performs any pending scan-setup work
	// (flushing the buffer, merging 1-pass runs) so measurements observe
	// the steady state, as the paper's repeated-range methodology does.
	q, err := store.NewQuery(end, 0, 1, nil)
	if err != nil {
		return nil, err
	}
	if _, _, err := q.Drain(); err != nil {
		return nil, err
	}
	end = q.Time()
	q.Close()
	return &storeEnv{env: e, store: store, fillEnd: end}, nil
}
