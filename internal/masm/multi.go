package masm

import (
	"fmt"
	"sort"

	"masm/internal/sim"
	"masm/internal/update"
)

// TxnPart is one table's slice of a transaction write set, in the form
// the redo log persists: the records are already stamped with their
// commit timestamps.
type TxnPart struct {
	Table uint32
	Recs  []update.Record
}

// StoreBatch is one store's part of a commit.
type StoreBatch struct {
	Store *Store
	Recs  []update.Record
}

// CommitAcross atomically publishes a write set spanning one or more
// stores of one engine — the only batch publisher, whatever the commit's
// arity: every involved store's latch is held (in table-id order) while
// consecutive commit timestamps from the shared oracle are stamped onto
// the records, the whole set is written to the shared redo log as one
// KindTxnBatch frame, and the records enter each table's update buffer.
// A concurrent snapshot on any involved table therefore sees all of the
// commit's records for that table or none, and crash recovery replays the
// commit all-or-nothing (the single frame either passes its CRC or is
// dropped with the torn tail).
//
// All stores must share one oracle and (when logging) one physical redo
// log. On error a stamped prefix may already be published (e.g. when a
// mid-batch buffer flush fails); lastTS reports the largest stamped
// timestamp so callers can keep first-committer-wins validation
// conservative.
//
// The commit record deliberately precedes publication: if any leg's
// records reach a durable run (a flush during publication forces the
// buffered log, commit record included), the whole batch is already on
// disk, so a crash can never resurrect part of the commit without the
// rest — the atomicity the record exists for. The trade-off is the
// failure path: when publication fails partway (e.g. a table hits its SSD
// budget), the live state holds only the stamped prefix while the log
// holds the full batch, so a *later crash* replays the commit in full.
// In other words, a commit that returned an error is "published at least
// partially now, possibly completely after a crash" — never torn after
// recovery, and its write set is always fully recorded for
// first-committer-wins, so no later transaction can have validated
// against its absence.
func CommitAcross(at sim.Time, batches []StoreBatch) (lastTS int64, end sim.Time, err error) {
	if len(batches) == 0 {
		return 0, at, nil
	}
	sorted := append([]StoreBatch(nil), batches...)
	sort.Slice(sorted, func(i, j int) bool {
		return sorted[i].Store.TableID() < sorted[j].Store.TableID()
	})
	oracle := sorted[0].Store.oracle
	var base any
	unlogged := 0
	for i, b := range sorted {
		if i > 0 && b.Store.TableID() == sorted[i-1].Store.TableID() {
			return 0, at, fmt.Errorf("masm: commit names table %d twice", b.Store.TableID())
		}
		if b.Store.oracle != oracle {
			return 0, at, fmt.Errorf("masm: commit spans stores with different oracles")
		}
		for r := range b.Recs {
			if err := b.Store.checkRecordSize(&b.Recs[r]); err != nil {
				return 0, at, err
			}
		}
		if b.Store.log == nil {
			unlogged++
			continue
		}
		if base == nil {
			base = b.Store.log.BatchBase()
		} else if b.Store.log.BatchBase() != base {
			return 0, at, fmt.Errorf("masm: commit spans stores with different redo logs")
		}
	}
	if base != nil && unlogged > 0 {
		return 0, at, fmt.Errorf("masm: commit mixes logged and unlogged stores")
	}

	// Latch every store in table-id order (the engine-wide lock order for
	// multi-store operations) and hold them all through stamping, logging
	// and publication.
	for _, b := range sorted {
		b.Store.mu.Lock()
	}
	defer func() {
		for i := len(sorted) - 1; i >= 0; i-- {
			sorted[i].Store.mu.Unlock()
		}
	}()

	parts := make([]TxnPart, 0, len(sorted))
	for _, b := range sorted {
		for i := range b.Recs {
			b.Recs[i].TS = oracle.Next()
			lastTS = b.Recs[i].TS
		}
		parts = append(parts, TxnPart{Table: b.Store.TableID(), Recs: b.Recs})
	}
	now := at
	if base != nil && lastTS > 0 {
		// One commit record: the whole write set in one frame, written
		// before any record becomes readable from a buffer (a read-only
		// commit stamped nothing and logs nothing).
		t, err := sorted[0].Store.log.LogTxnBatch(now, parts)
		if err != nil {
			return lastTS, at, err
		}
		now = t
	}
	for _, b := range sorted {
		for i := range b.Recs {
			t, err := b.Store.applyNoLogLocked(now, b.Recs[i])
			if err != nil {
				return lastTS, at, err
			}
			now = t
		}
	}
	return lastTS, now, nil
}
