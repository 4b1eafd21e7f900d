package masm

import (
	"runtime"
	"sync"

	core "masm/internal/masm"
)

// Snapshot is a consistent view of one table at one point in the
// update timeline. Scans opened from it all observe the same state:
// exactly the updates applied before the snapshot was taken, none after.
// Concurrent writers proceed unblocked while a snapshot is open; the
// table's migration waits for it (other tables of the same engine migrate
// freely).
//
// A Snapshot must be Closed when no longer needed — an open snapshot
// blocks its table's migration. It holds no SSD runs: each scan opened
// from it pins the runs it reads, for as long as it reads them.
type Snapshot struct {
	t         *Table
	snap      *core.Snapshot
	closeOnce sync.Once
}

// Scan calls fn for every live record with key in [begin, end] as of the
// snapshot, in key order. fn returning false stops the scan early. Any
// number of Scans may run from one snapshot, concurrently or sequentially;
// they all see identical data. body is valid only until fn returns, as in
// Table.Scan, folded rows included (a modified row's body is the scan's
// scratch): copy it to keep it.
func (s *Snapshot) Scan(begin, end uint64, fn func(key uint64, body []byte) bool) error {
	e := s.t.eng
	e.mu.RLock()
	if err := s.t.liveLocked(); err != nil {
		e.mu.RUnlock()
		return err
	}
	q, err := s.snap.NewQuery(e.clock.now(), begin, end, nil)
	e.mu.RUnlock()
	if err != nil {
		return err
	}
	err = e.drainQuery(q, fn)
	runtime.KeepAlive(s) // see Table.Snapshot's AddCleanup
	return err
}

// Close releases the snapshot and unblocks migration. Close is
// idempotent; scans already running from this snapshot finish normally.
func (s *Snapshot) Close() {
	s.closeOnce.Do(func() { s.snap.Close() })
	runtime.KeepAlive(s) // see Table.Snapshot's AddCleanup
}
