// Package inplace implements the conventional online-update baseline the
// paper measures first (§2.2): every incoming update is applied directly
// to the main data with a random 4 KB read-modify-write on the data disk.
// Mixed with concurrent range scans, these random I/Os destroy the scans'
// sequential access pattern — the 1.5–4.1× slowdowns of Figures 3, 4
// and 9.
package inplace

import (
	"fmt"

	"masm/internal/sim"
	"masm/internal/table"
	"masm/internal/update"
)

// Updater applies well-formed updates in place on a table.
type Updater struct {
	tbl *table.Table
}

// NewUpdater creates an in-place updater for tbl.
func NewUpdater(tbl *table.Table) *Updater {
	return &Updater{tbl: tbl}
}

// Apply performs one random read-modify-write: locate the page covering
// the key, read it (4 KB random I/O), apply the update, write it back
// (4 KB random I/O). Overflowing inserts spill into overflow pages exactly
// as migration splits do.
func (u *Updater) Apply(at sim.Time, rec update.Record) (sim.Time, error) {
	pageNo := u.tbl.PageForKey(rec.Key)
	if pageNo < 0 {
		return at, fmt.Errorf("inplace: empty table")
	}
	p, t, err := u.tbl.ReadPageAt(at, pageNo)
	if err != nil {
		return at, err
	}
	before := len(p.Keys)
	ovfs := table.ApplyUpdatesToPage(p, []update.Record{rec}, rec.TS, u.tbl.Config().PageSize)
	after := len(p.Keys)
	t, err = u.tbl.WritePageAt(t, pageNo, p)
	if err != nil {
		return at, err
	}
	for _, ovf := range ovfs {
		after += len(ovf.Keys)
		t, err = u.tbl.AddOverflow(t, ovf)
		if err != nil {
			return at, err
		}
	}
	u.tbl.AdjustRows(int64(after - before))
	return t, nil
}

// ApplyBatch applies a batch of updates back-to-back, chaining each
// read-modify-write off the previous completion, and returns the
// completion time of the last one. There is nothing to amortize — every
// update is still its own random page rewrite; that is the point of this
// baseline — so it costs exactly what the equivalent Apply loop costs.
// It exists for interface parity with the batched merge engine: callers
// holding an update batch hand it over in one call.
func (u *Updater) ApplyBatch(at sim.Time, recs []update.Record) (sim.Time, error) {
	now := at
	for i := range recs {
		t, err := u.Apply(now, recs[i])
		if err != nil {
			return now, err
		}
		now = t
	}
	return now, nil
}

// Stream applies a continuous stream of updates — the "online random
// updates" half of the paper's interference experiments — one Step at a
// time, so a measurement can interleave it with a query by always stepping
// whichever has the smaller local time. It runs until its generator is
// exhausted or its update budget is spent.
//
// The stream keeps QueueDepth update requests outstanding, modelling the
// OS I/O queue (NCQ) a real online update stream fills: a query I/O
// arriving at the disk waits behind the queued updates, which is exactly
// the delay the paper measures for small ranges (a 4 KB scan I/O grows
// from 12.2 ms to 44.7 ms, §4.2).
type Stream struct {
	u   *Updater
	gen func(i int64) update.Record
	// Think is the inter-arrival gap between updates; zero saturates the
	// disk, matching the paper's "updates sent as fast as possible".
	think sim.Duration
	// QueueDepth is the number of outstanding updates the stream keeps
	// in flight. Defaults to 2.
	QueueDepth int

	submit sim.Time   // next submission time
	done   []sim.Time // completion times, oldest first, len < QueueDepth
	i      int64
	max    int64
	err    error
}

// NewStream creates a saturating update stream. gen produces the i-th
// update; max < 0 means unbounded.
func NewStream(u *Updater, gen func(i int64) update.Record, think sim.Duration, max int64) *Stream {
	return &Stream{u: u, gen: gen, think: think, max: max, QueueDepth: 2}
}

// Time returns the stream's local time: its next submission time.
func (s *Stream) Time() sim.Time { return s.submit }

// Step submits one update; it reports false when the stream has ended.
func (s *Stream) Step() bool {
	if s.err != nil || (s.max >= 0 && s.i >= s.max) {
		return false
	}
	rec := s.gen(s.i)
	s.i++
	c, err := s.u.Apply(s.submit, rec)
	if err != nil {
		s.err = err
		return false
	}
	s.done = append(s.done, c)
	// The next submission may proceed once fewer than QueueDepth requests
	// are outstanding: it is gated on the completion of the request
	// QueueDepth positions back.
	qd := s.QueueDepth
	if qd < 1 {
		qd = 1
	}
	next := s.submit
	if len(s.done) >= qd {
		next = sim.MaxTime(next, s.done[len(s.done)-qd])
		s.done = s.done[len(s.done)-qd:]
	}
	s.submit = next.Add(s.think)
	return true
}

// Err returns the first error encountered.
func (s *Stream) Err() error { return s.err }

// SustainedRate measures the best-case in-place update throughput: updates
// applied back-to-back with no concurrent queries (paper Fig 12's
// "in-place updates" bar). It returns updates per second of simulated
// time. Updates are generated and applied a batch at a time through
// ApplyBatch; the simulated result is identical to the one-at-a-time
// loop by construction.
func SustainedRate(u *Updater, gen func(i int64) update.Record, n int64) (float64, error) {
	const batch = 256
	buf := make([]update.Record, 0, batch)
	var now sim.Time
	for i := int64(0); i < n; {
		buf = buf[:0]
		for len(buf) < batch && i < n {
			buf = append(buf, gen(i))
			i++
		}
		t, err := u.ApplyBatch(now, buf)
		if err != nil {
			return 0, err
		}
		now = t
	}
	if now == 0 {
		return 0, fmt.Errorf("inplace: no time elapsed")
	}
	return float64(n) / now.Seconds(), nil
}
