package masm

import (
	"runtime"
	"sync"

	core "masm/internal/masm"
	"masm/internal/table"
)

// Snapshot is a consistent view of one table at one point in the
// update timeline. Scans opened from it all observe the same state:
// exactly the updates applied before the snapshot was taken, none after.
// Concurrent writers proceed unblocked while a snapshot is open; the
// table's migration waits for it (other tables of the same engine migrate
// freely).
//
// A Snapshot must be Closed when no longer needed — an open snapshot
// blocks its table's migration. It holds no SSD runs: each scan or lookup
// opened from it pins the runs it reads, for as long as it reads them.
type Snapshot struct {
	t         *Table
	snap      *core.Snapshot
	closeOnce sync.Once
}

// TS returns the snapshot's read timestamp on the engine's commit
// timeline.
func (s *Snapshot) TS() int64 { return s.snap.TS() }

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

// Get returns the version of one record as of the snapshot, or ok=false
// if it did not exist then, by the same point lookup as Table.Get.
func (s *Snapshot) Get(key uint64) ([]byte, bool, error) {
	e := s.t.eng
	e.mu.RLock() // across the lookup; see Table.Get
	defer e.mu.RUnlock()
	if err := s.t.liveLocked(); err != nil {
		return nil, false, err
	}
	row, found, end, err := s.snap.Get(e.clock.now(), key)
	e.clock.advance(end)
	runtime.KeepAlive(s) // see Table.Snapshot's AddCleanup
	return row.Body, found, err
}

// Close releases the snapshot and unblocks migration. Close is
// idempotent; scans already running from this snapshot finish normally.
func (s *Snapshot) Close() {
	s.closeOnce.Do(func() { s.snap.Close() })
	runtime.KeepAlive(s) // see Table.Snapshot's AddCleanup
}

// MainSnapshot is a point-in-time view of one table's migrated main
// store — the shadow-paging payoff. Capturing it copies the table's
// logical→physical page reference table (a few dozen bytes per page),
// not the pages: because migration never overwrites a referenced page
// in place, the captured refs keep describing the exact main-store
// contents at capture time no matter how many migrations run
// afterwards. Unlike Snapshot it does not cover the SSD update cache
// (updates not yet migrated are invisible) and does not block
// migration — writers and migrations proceed at full speed while it is
// open; the slots it pins are merely parked instead of reused until
// Close.
type MainSnapshot struct {
	t         *Table
	snap      *table.RefSnapshot
	closeOnce sync.Once
}

// SnapshotRefs captures a MainSnapshot of the table's main store. The
// snapshot must be Closed when no longer needed so its page slots can
// be reused; an abandoned snapshot is closed by a GC cleanup as a
// safety net.
func (t *Table) SnapshotRefs() (*MainSnapshot, error) {
	e := t.eng
	e.mu.RLock()
	defer e.mu.RUnlock()
	if err := t.liveLocked(); err != nil {
		return nil, err
	}
	ms := &MainSnapshot{t: t, snap: t.tbl.SnapshotRefs()}
	runtime.AddCleanup(ms, func(sn *table.RefSnapshot) { sn.Close() }, ms.snap)
	return ms, nil
}

// SnapshotRefs captures a MainSnapshot of the named table's main store;
// see Table.SnapshotRefs.
func (e *Engine) SnapshotRefs(name string) (*MainSnapshot, error) {
	t, err := e.OpenTable(name)
	if err != nil {
		return nil, err
	}
	return t.SnapshotRefs()
}

// Pages returns the number of main-store pages frozen by the snapshot.
func (s *MainSnapshot) Pages() int { return len(s.snap.Refs()) }

// Scan calls fn for every row with key in [begin, end] as of the
// snapshot's capture point, in key order, charging simulated read time
// for the frozen pages it visits. fn returning false stops the scan
// early.
func (s *MainSnapshot) Scan(begin, end uint64, fn func(key uint64, body []byte) bool) error {
	e := s.t.eng
	e.mu.RLock()
	if err := s.t.liveLocked(); err != nil {
		e.mu.RUnlock()
		return err
	}
	now := e.clock.now()
	e.mu.RUnlock()
	at, err := s.snap.ScanRows(now, func(r table.Row) bool {
		if r.Key < begin {
			return true
		}
		if r.Key > end {
			return false
		}
		return fn(r.Key, r.Body)
	})
	e.clock.advance(at)
	runtime.KeepAlive(s) // see SnapshotRefs's AddCleanup
	return err
}

// Close releases the snapshot's slot pins so reclaimed pages can be
// reused. Idempotent.
func (s *MainSnapshot) Close() {
	s.closeOnce.Do(func() { s.snap.Close() })
	runtime.KeepAlive(s) // see SnapshotRefs's AddCleanup
}
