package bench

import (
	"fmt"

	"masm/internal/sim"
)

// Portion is the §3.5 incremental-migration ablation ("one can migrate a
// portion of updates at a time to distribute the cost across multiple
// operations"): compare one monolithic migration against a sweep of
// portioned migrations, reporting the worst single-operation stall each
// scheme imposes.
func Portion(opts Options) (*Result, error) {
	res := &Result{
		ID:     "portion",
		Title:  "incremental migration: worst single-operation stall",
		Header: []string{"scheme", "operations", "total time", "worst stall"},
	}
	// Monolithic migration.
	seFull, err := newFilledStore(opts, 1, 0.5)
	if err != nil {
		return nil, err
	}
	start := seFull.env.quiesce(seFull.fillEnd)
	end, _, err := seFull.store.Migrate(start)
	if err != nil {
		return nil, err
	}
	full := end.Sub(start)
	res.AddRow("full migration", "1", sec(full.Seconds()), sec(full.Seconds()))

	for _, parts := range []int{4, 16} {
		se, err := newFilledStore(opts, 1, 0.5)
		if err != nil {
			return nil, err
		}
		pages := int(se.env.tbl.Pages())/parts + 1
		now := se.env.quiesce(se.fillEnd)
		var total, worst sim.Duration
		ops := 0
		for {
			t0 := now
			mig, err := se.store.BeginMigration(now, pages)
			if err != nil {
				return nil, err
			}
			end, rep, err := mig.Run()
			if err != nil {
				return nil, err
			}
			now = end
			ops++
			d := end.Sub(t0)
			total += d
			if d > worst {
				worst = d
			}
			if rep.SweepDone {
				break
			}
			if ops > parts*2 {
				return nil, fmt.Errorf("bench: portion sweep did not converge")
			}
		}
		res.AddRow(fmt.Sprintf("%d portions", parts), fmt.Sprintf("%d", ops),
			sec(total.Seconds()), sec(worst.Seconds()))
	}
	res.Notes = append(res.Notes,
		"portioning trades modest total overhead (per-portion seeks) for a much smaller worst-case stall")
	return res, nil
}
