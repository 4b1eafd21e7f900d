// Package txn provides transaction support over a MaSM store (paper
// §3.6). MaSM itself guarantees serializability among individual queries
// and updates via timestamps; this package extends that to general
// transactions under snapshot isolation, the first of the two schemes the
// paper describes: a transaction reads the snapshot at its start timestamp
// and buffers its own updates in a small private buffer, visible only to
// itself; at commit, the first committer wins and the private updates move
// to MaSM's global update buffer with the commit timestamp.
//
// Physical interference is MaSM's department; this package is purely the
// logical visibility layer on top.
package txn

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"masm/internal/masm"
	"masm/internal/sim"
	"masm/internal/update"
)

// ErrWriteConflict aborts a snapshot transaction whose write set was
// modified by a transaction that committed after this one began (first
// committer wins).
var ErrWriteConflict = errors.New("txn: write-write conflict (first committer wins)")

// ErrDone reports use of a finished transaction.
var ErrDone = errors.New("txn: transaction already committed or aborted")

// Manager coordinates transactions over one MaSM store.
type Manager struct {
	store *masm.Store

	// commitMu serializes whole commits: first-committer-wins validation
	// and the publication of the write set must be atomic with respect to
	// other commits, or two concurrent committers of the same key could
	// both pass validation.
	commitMu sync.Mutex

	mu sync.Mutex
	// lastCommit tracks, per key, the latest commit timestamp — the
	// validation state for first-committer-wins. An entry at or below the
	// oldest open transaction's start timestamp can never cause a conflict,
	// so markCommitted prunes those whenever the map has doubled since the
	// last prune (pruneAt), bounding it by the keys committed while the
	// oldest open transaction has been running.
	lastCommit map[uint64]int64
	pruneAt    int
	// open maps each open transaction's id to its start timestamp. A
	// transaction is open from Begin until Commit or Abort finishes it.
	open map[int64]int64
	seq  int64
}

// minPruneAt is the smallest lastCommit size at which a prune runs.
const minPruneAt = 1024

// NewManager creates a transaction manager over store.
func NewManager(store *masm.Store) *Manager {
	return &Manager{
		store:      store,
		lastCommit: make(map[uint64]int64),
		pruneAt:    minPruneAt,
		open:       make(map[int64]int64),
	}
}

// Txn is one transaction.
type Txn struct {
	m       *Manager
	id      int64
	startTS int64
	// snap pins the transaction's reader view in the store from Begin to
	// Commit/Abort, so migration waits for the transaction and the §3.5
	// combining policy respects its timestamp. A transaction must end in
	// Commit or Abort, or it blocks migration indefinitely.
	snap *masm.Snapshot
	// private is the transaction's own update buffer (paper: "a small
	// private buffer for the updates performed by the transaction").
	private []update.Record
	writes  map[uint64]bool
	done    bool
}

// Begin starts a transaction. The start timestamp fixes the snapshot the
// transaction reads; the store pins it (timestamp issue and reader
// registration are atomic) until the transaction ends. The transaction is
// registered as open in the same hold of the manager's mutex that issues
// its timestamp, so no prune can drop a commit it must still validate
// against.
func (m *Manager) Begin() *Txn {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.seq++
	snap := m.store.Snapshot()
	m.open[m.seq] = snap.TS()
	return &Txn{
		m:       m,
		id:      m.seq,
		startTS: snap.TS(),
		snap:    snap,
		writes:  make(map[uint64]bool),
	}
}

// finish marks the transaction done, releases its pinned snapshot and
// closes it in the manager.
func (t *Txn) finish() {
	t.done = true
	t.snap.Close()
	t.m.mu.Lock()
	delete(t.m.open, t.id)
	t.m.mu.Unlock()
}

// ReleaseReads ends the transaction's reads ahead of its end: the pinned
// snapshot closes, so migration stops waiting for the transaction. Commit
// still validates and publishes the write set — first-committer-wins reads
// the manager's commit history, not the snapshot — but Scan fails from
// here on. A transaction about to commit calls it before it waits for
// migration, or its own reader would veto the migration it waits for.
func (t *Txn) ReleaseReads() { t.snap.Close() }

// Wrote reports whether the transaction has buffered an update.
func (t *Txn) Wrote() bool { return len(t.private) > 0 }

// Update buffers a well-formed update in the transaction's private
// buffer.
func (t *Txn) Update(rec update.Record) error {
	if t.done {
		return ErrDone
	}
	// Private updates are ordered after everything the snapshot sees and
	// among themselves by arrival; sequence them just above startTS.
	rec.TS = t.startTS // placeholder; ordering within private is by index
	t.private = append(t.private, rec)
	t.writes[rec.Key] = true
	return nil
}

// Scan reads [begin, end] at the transaction's snapshot, overlaying the
// transaction's own private updates (the paper's extra Mem_scan operator
// on the private buffer). fn is called per visible row, with a body valid
// only until it returns; returning false stops early. It returns the
// completion time of the scan.
func (t *Txn) Scan(at sim.Time, begin, end uint64, fn func(key uint64, body []byte) bool) (sim.Time, error) {
	if t.done {
		return at, ErrDone
	}
	q, err := t.snap.NewQuery(at, begin, end, nil)
	if err != nil {
		return at, err
	}
	defer q.Close()
	// The per-key overlay: each key's private updates in arrival order,
	// and the keys in key order.
	overlay := make(map[uint64][]update.Record)
	var keys []uint64
	for _, r := range t.private {
		if r.Key < begin || r.Key > end {
			continue
		}
		if _, ok := overlay[r.Key]; !ok {
			keys = append(keys, r.Key)
		}
		overlay[r.Key] = append(overlay[r.Key], r)
	}
	slices.Sort(keys)
	// emit folds key's overlay onto the snapshot's row (exists says there
	// is one) and hands fn the result, if the key still exists.
	emit := func(key uint64, body []byte, exists bool) bool {
		recs := overlay[key]
		for i := range recs {
			body, exists = update.Apply(body, exists, &recs[i])
		}
		return !exists || fn(key, body)
	}
	ki, stopped := 0, false
	err = q.Each(func(key uint64, body []byte) bool {
		// Private-only keys ordered before this row.
		for ; ki < len(keys) && keys[ki] < key; ki++ {
			if !emit(keys[ki], nil, false) {
				stopped = true
				return false
			}
		}
		if ki < len(keys) && keys[ki] == key {
			ki++
			stopped = !emit(key, body, true)
		} else {
			stopped = !fn(key, body)
		}
		return !stopped
	})
	if err != nil || stopped {
		return q.Time(), err
	}
	for ; ki < len(keys); ki++ {
		if !emit(keys[ki], nil, false) {
			break
		}
	}
	return q.Time(), nil
}

// Commit validates and publishes t — together with the sub-transactions
// in with, one per further table and each from that table's own Manager —
// as one atomic transaction. Each sub-transaction validates
// first-committer-wins against its table's commit history. Validation and publication
// happen while every involved manager's commit mutex is held, and the
// publication itself is masm.CommitAcross, which stamps the whole write set
// under every store's latch and logs it as a single redo record. A
// concurrent reader of any involved table therefore sees the commit's
// records for that table all-or-nothing, and recovery replays the write
// set all-or-nothing.
//
// Every sub-transaction is finished by the call, whatever the outcome.
// Managers are locked in table-id order — the engine-wide lock order — so
// commits of any arity never deadlock each other.
func (t *Txn) Commit(at sim.Time, with ...*Txn) (sim.Time, error) {
	sorted := append([]*Txn{t}, with...)
	sort.Slice(sorted, func(i, j int) bool {
		return sorted[i].m.store.TableID() < sorted[j].m.store.TableID()
	})
	for i, sub := range sorted {
		if sub.done {
			return at, ErrDone
		}
		if i > 0 && sub.m == sorted[i-1].m {
			return at, errors.New("txn: commit names one table twice")
		}
	}
	for _, sub := range sorted {
		sub.m.commitMu.Lock()
	}
	defer func() {
		for i := len(sorted) - 1; i >= 0; i-- {
			sub := sorted[i]
			sub.finish()
			sub.m.commitMu.Unlock()
		}
	}()
	batches := make([]masm.StoreBatch, len(sorted))
	for i, sub := range sorted {
		if key, ok := sub.m.conflict(sub); ok {
			return at, fmt.Errorf("table %d key %d: %w", sub.m.store.TableID(), key, ErrWriteConflict)
		}
		batches[i] = masm.StoreBatch{Store: sub.m.store, Recs: sub.private}
	}
	commitTS, now, err := masm.CommitAcross(at, batches)
	// Record the write sets under the largest stamped timestamp whether or
	// not the publication fully succeeded: over-marking unpublished keys
	// only causes spurious conflicts, while under-marking would let a
	// later transaction that began before this one pass validation and
	// silently overwrite a published prefix.
	if commitTS > 0 {
		for _, sub := range sorted {
			sub.m.markCommitted(sub, commitTS)
		}
	}
	if err != nil {
		return at, err
	}
	return now, nil
}

// conflict reports a key of t's write set that another transaction
// committed after t began.
func (m *Manager) conflict(t *Txn) (uint64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for key := range t.writes {
		if m.lastCommit[key] > t.startTS {
			return key, true
		}
	}
	return 0, false
}

// markCommitted raises the last-commit timestamp of t's write set to ts,
// then prunes the history if it has doubled since the last prune.
func (m *Manager) markCommitted(t *Txn, ts int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for key := range t.writes {
		if m.lastCommit[key] < ts {
			m.lastCommit[key] = ts
		}
	}
	if len(m.lastCommit) >= m.pruneAt {
		m.pruneLocked()
	}
}

// pruneLocked drops every commit-history entry at or below the oldest open
// transaction's start timestamp: conflict only asks whether an entry lies
// above an open transaction's start timestamp, and transactions begun
// later start above every timestamp issued so far.
func (m *Manager) pruneLocked() {
	oldest := int64(math.MaxInt64)
	for _, ts := range m.open {
		oldest = min(oldest, ts)
	}
	for key, ts := range m.lastCommit {
		if ts <= oldest {
			delete(m.lastCommit, key)
		}
	}
	m.pruneAt = max(minPruneAt, 2*len(m.lastCommit))
}

// Abort discards the private buffer and finishes the transaction.
func (t *Txn) Abort() {
	if t.done {
		return
	}
	t.finish()
	t.private = nil
}
