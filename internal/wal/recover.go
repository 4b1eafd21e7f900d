package wal

import (
	"sort"

	"masm/internal/masm"
	"masm/internal/update"
)

// TableState is one table's recovered state after log replay: which
// materialized runs are live, which logged updates were still in the lost
// in-memory buffer, and whether a migration must be redone.
type TableState struct {
	Runs    []masm.RunMeta
	Pending []update.Record
	// RedoMigration is non-nil when a migration began without completing;
	// it holds the logged run ids (the redo itself migrates everything
	// live, which is a superset and idempotent).
	RedoMigration []int64
	// MaxTS is the largest timestamp named anywhere in the table's log —
	// updates, run high-water marks AND migration timestamps. Recovery
	// must resume the oracle above it: migration timestamps are stamped
	// onto rewritten data pages, and an oracle resuming below a page
	// stamp would issue new updates timestamps the page-timestamp check
	// silently suppresses (found by the chaos harness: crash during an
	// incremental migration, reopen, insert — the insert was invisible).
	MaxTS int64
}

// Replayer folds log entries into per-table recovered state incrementally
// — the crash-recovery procedure of paper §3.6, generalized to the shared
// multi-table log of §5, restated as a streaming fold so recovery can
// route entries as ReadStream decodes them instead of materializing the
// whole log first. A per-table entry belongs to the table its payload
// names; a KindTxnBatch fans its parts out to every table it names. For
// each table it determines, in log order,
//
//   - which materialized sorted runs are live (flushed or merged, and not
//     yet migrated),
//   - which logged updates were still in the lost in-memory buffer (those
//     not covered by any flush), and
//   - whether a migration began without completing.
//
// The streaming shape is also what bounds replay memory: every flush
// record prunes the covered pending updates on the spot, so the fold's
// live state tracks the *recovered* buffer, not the log's full history.
type Replayer struct {
	states map[uint32]*TableState
	live   map[uint32]map[int64]masm.RunMeta

	// OnRun, when set, is invoked from Observe as each run first becomes
	// live (a flush, merge, or checkpoint entry). Recovery uses it to start
	// rebuild scans while the rest of the log is still streaming; a run a
	// later entry consumes may therefore be announced and then never appear
	// in States — the callback's work must be discardable. Called on the
	// Observe goroutine, in log order.
	OnRun func(table uint32, rm masm.RunMeta)
}

// NewReplayer returns an empty fold. Feed it with Observe, finish with
// States.
func NewReplayer() *Replayer {
	return &Replayer{
		states: make(map[uint32]*TableState),
		live:   make(map[uint32]map[int64]masm.RunMeta),
	}
}

func (r *Replayer) state(t uint32) *TableState {
	st := r.states[t]
	if st == nil {
		st = &TableState{}
		r.states[t] = st
		r.live[t] = make(map[int64]masm.RunMeta)
	}
	return st
}

func (r *Replayer) seen(t uint32, ts int64) {
	if st := r.state(t); ts > st.MaxTS {
		st.MaxTS = ts
	}
}

// Observe folds one decoded entry. Entries must arrive in log order.
func (r *Replayer) Observe(e Entry) {
	switch e.Kind {
	case KindUpdate:
		st := r.state(e.Table)
		st.Pending = append(st.Pending, e.Rec)
		r.seen(e.Table, e.Rec.TS)
	case KindFlush:
		st := r.state(e.Table)
		r.seen(e.Table, e.Run.MaxTS)
		r.live[e.Table][e.Run.RunID] = e.Run
		if r.OnRun != nil {
			r.OnRun(e.Table, e.Run)
		}
		// Updates with timestamps ≤ MaxTS are durable in the run.
		kept := st.Pending[:0]
		for _, rec := range st.Pending {
			if rec.TS > e.Run.MaxTS {
				kept = append(kept, rec)
			}
		}
		st.Pending = kept
	case KindMerge:
		r.state(e.Table)
		r.seen(e.Table, e.Run.MaxTS)
		for _, id := range e.Consumed {
			delete(r.live[e.Table], id)
		}
		r.live[e.Table][e.Run.RunID] = e.Run
		if r.OnRun != nil {
			r.OnRun(e.Table, e.Run)
		}
	case KindMigrationBegin:
		r.state(e.Table).RedoMigration = append([]int64(nil), e.RunIDs...)
		r.seen(e.Table, e.MigTS)
	case KindMigrationPortion:
		// One incremental portion completed: the migration no longer
		// needs redoing, but the runs stay live — only those a finished
		// sweep fully applied (listed in the record) are consumed.
		st := r.state(e.Table)
		r.seen(e.Table, e.MigTS)
		for _, id := range e.Consumed {
			delete(r.live[e.Table], id)
		}
		st.RedoMigration = nil
	case KindOracleAdvance:
		// Engine-wide timestamp high water from a previous recovery's
		// checkpoint; attach it to table 0 (every recovery consumer
		// folds all tables' MaxTS into one oracle).
		r.seen(0, e.MigTS)
	case KindTxnBatch:
		// A decoded batch is a committed (durable) cross-table write
		// set: its records join their tables' buffers like individually
		// logged updates.
		for _, p := range e.Parts {
			st := r.state(p.Table)
			st.Pending = append(st.Pending, p.Recs...)
			for i := range p.Recs {
				r.seen(p.Table, p.Recs[i].TS)
			}
		}
	}
}

// States finalizes and returns the per-table recovered state. Runs are
// sorted by id — map iteration order must not leak into consumers, which
// replay the set into checkpoints and priced rebuild scans and need two
// recoveries of the same log to charge the same virtual timeline. The
// Replayer is spent afterwards: observing more entries is a bug.
func (r *Replayer) States() map[uint32]*TableState {
	for t, st := range r.states {
		st.Runs = st.Runs[:0]
		for _, rm := range r.live[t] {
			st.Runs = append(st.Runs, rm)
		}
		sort.Slice(st.Runs, func(i, j int) bool { return st.Runs[i].RunID < st.Runs[j].RunID })
	}
	return r.states
}
