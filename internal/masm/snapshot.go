package masm

import (
	"errors"

	"masm/internal/sim"
	"masm/internal/update"
)

// ErrSnapshotClosed reports use of a closed Snapshot.
var ErrSnapshotClosed = errors.New("masm: snapshot closed")

// Snapshot is an immutable logical view of the store at one timestamp,
// held without any lock while it is open. It is the mechanism behind
// snapshot-isolated scans: a long analytical read captures a Snapshot,
// releases the store latch, and iterates at leisure while concurrent
// updates stream into the buffer and new runs materialize around it.
//
// A Snapshot guarantees:
//
//   - Visibility: queries and lookups opened from it see exactly the
//     updates with timestamps below the snapshot's (the paper's timestamp
//     rule, §3.2). Each opens on the run set current when it starts and
//     pins that itself, so the snapshot holds no runs: a merge that
//     retires runs while it is open frees their extents at once.
//   - Safety: the snapshot registers as an active reader, so the §3.5
//     duplicate-combining policy never merges two updates across its
//     timestamp, and migration waits for it (migration only proceeds when
//     no reader older than the migration timestamp exists).
//
// Close must be called exactly once per snapshot; a Snapshot left open
// blocks migration indefinitely.
type Snapshot struct {
	s      *Store
	ts     int64
	closed bool // guarded by s.mu
}

// Snapshot captures the store's current logical state: it takes a fresh
// timestamp and registers it as a reader, atomically under the store
// latch. The call performs no I/O and holds the latch only briefly.
// Transactions use it to pin their begin-time view.
func (s *Store) Snapshot() *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	sn := &Snapshot{s: s, ts: s.oracle.Next()}
	s.addReaderLocked(sn.ts)
	s.snapshots++
	s.m.OpenSnapshots.Set(int64(s.snapshots))
	return sn
}

// TS returns the snapshot's timestamp: updates with smaller timestamps are
// visible, all others invisible.
func (sn *Snapshot) TS() int64 { return sn.ts }

// NewQuery opens a range scan over [begin, end] reading at the snapshot's
// timestamp, with an optional pushdown predicate (see Store.NewQuery). Any
// number of queries may be opened from one snapshot, concurrently or
// sequentially; each sees the same logical view. The returned query must
// be Closed independently of the snapshot.
//
// Liveness is checked in the same latch hold that registers the query: a
// Close racing with NewQuery either wins (ErrSnapshotClosed) or loses (the
// query registers while the snapshot still protects its timestamp) —
// never the in-between where the view's protection lapses with a query
// opening.
func (sn *Snapshot) NewQuery(at sim.Time, begin, end uint64, pred *update.Pred) (*Query, error) {
	s := sn.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if sn.closed {
		return nil, ErrSnapshotClosed
	}
	return s.newQueryLocked(at, begin, end, sn.ts, pred)
}

// Close releases the snapshot: it unregisters the reader timestamp.
// Queries already opened from the snapshot remain valid (they hold their
// own pins). Close is idempotent.
func (sn *Snapshot) Close() {
	s := sn.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if sn.closed {
		return
	}
	sn.closed = true
	s.dropReaderLocked(sn.ts)
	s.snapshots--
	s.m.OpenSnapshots.Set(int64(s.snapshots))
}
