package masm

import (
	"errors"
	"runtime"
	"sync"

	"masm/internal/txn"
	"masm/internal/update"
)

// TxMode selects the concurrency-control scheme for a transaction
// (paper §3.6). Snapshot isolation is the one scheme.
type TxMode int

// TxSnapshot runs the transaction under snapshot isolation with
// first-committer-wins conflict resolution.
const TxSnapshot TxMode = 0

// EngineTx is a transaction spanning any number of the engine's tables.
// Each table touched gets a sub-transaction on that table's manager
// (pinning a snapshot of the table at first touch), writes stay in
// per-table private buffers, and Commit publishes the whole write set
// atomically: every involved table's records are stamped with consecutive
// commit timestamps under all the stores' latches and written to the
// shared redo log as one commit record, so both concurrent readers and
// crash recovery see the commit all-or-nothing, on one table or many.
//
// Reads are per-table snapshots taken lazily (at the first operation
// naming the table), not one engine-wide point in time; the atomicity
// guarantee is about the commit. Under TxSnapshot each table's writes
// validate first-committer-wins against that table's commit history.
//
// An EngineTx is not safe for concurrent use by multiple goroutines.
type EngineTx struct {
	eng *Engine

	mu   sync.Mutex
	subs map[string]*txn.Txn
	done bool
}

// BeginTx starts a transaction that may read and write any table of the
// catalog. mode must be TxSnapshot: snapshot isolation with
// first-committer-wins. The transaction must end in Commit or
// Abort: each table it touches pins a snapshot, and like any reader an
// open transaction makes that table's migration wait (the paper's rule,
// §3.2) — under continuously overlapping transactions, leave gaps or bound
// transaction lifetimes so migration can run. (A commit that waits for
// migration under admission releases its own snapshots first: see
// Commit.)
func (e *Engine) BeginTx(mode TxMode) (*EngineTx, error) {
	if mode != TxSnapshot {
		return nil, errors.New("masm: unknown transaction mode")
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return nil, ErrClosed
	}
	tx := &EngineTx{eng: e, subs: make(map[string]*txn.Txn)}
	return tx, nil
}

// sub returns (beginning if necessary) the sub-transaction for a table.
func (tx *EngineTx) sub(tableName string) (*txn.Txn, error) {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.done {
		return nil, txn.ErrDone
	}
	if s, ok := tx.subs[tableName]; ok {
		return s, nil
	}
	t, err := tx.eng.OpenTable(tableName)
	if err != nil {
		return nil, err
	}
	s := t.txns.Begin()
	tx.subs[tableName] = s
	// Safety net for abandoned transactions: an unreferenced EngineTx that
	// never reached Commit or Abort would otherwise pin every touched
	// table's snapshot forever, permanently blocking migration. Abort is
	// idempotent, so the cleanup is a no-op for properly finished
	// transactions; the KeepAlive calls keep tx reachable across each inner
	// call.
	runtime.AddCleanup(tx, func(s *txn.Txn) { s.Abort() }, s)
	return s, nil
}

// Insert buffers an insertion into table in the transaction.
func (tx *EngineTx) Insert(table string, key uint64, body []byte) error {
	return tx.update(table, insertRecord(key, body))
}

// Delete buffers a deletion from table in the transaction.
func (tx *EngineTx) Delete(table string, key uint64) error {
	return tx.update(table, update.Record{Key: key, Op: update.Delete})
}

// Modify buffers a field modification of table's record in the
// transaction.
func (tx *EngineTx) Modify(table string, key uint64, off int, val []byte) error {
	rec, err := modifyRecord(key, off, val)
	if err != nil {
		return err
	}
	return tx.update(table, rec)
}

// update buffers rec in table's sub-transaction.
func (tx *EngineTx) update(table string, rec update.Record) error {
	s, err := tx.sub(table)
	if err != nil {
		return err
	}
	err = s.Update(rec)
	runtime.KeepAlive(tx)
	return err
}

// Scan reads [begin, end] of tableName at the transaction's snapshot of
// that table, overlaid with the transaction's own writes to it. body is
// valid only until fn returns, as in Table.Scan: copy it to keep it.
func (tx *EngineTx) Scan(tableName string, begin, end uint64, fn func(key uint64, body []byte) bool) error {
	s, err := tx.sub(tableName)
	if err != nil {
		return err
	}
	e := tx.eng
	end2, err := s.Scan(e.clock.now(), begin, end, fn)
	e.clock.advance(end2)
	runtime.KeepAlive(tx)
	return err
}

// Get returns the transaction's view of one record of tableName. It stays
// a one-key Scan rather than the store's point lookup: the overlay of the
// transaction's own writes lives in txn's scan.
func (tx *EngineTx) Get(tableName string, key uint64) ([]byte, bool, error) {
	var body []byte
	found := false
	err := tx.Scan(tableName, key, key, func(_ uint64, b []byte) bool {
		body = append([]byte(nil), b...)
		found = true
		return false
	})
	return body, found, err
}

// Commit validates and atomically publishes the transaction's writes
// across every table it touched: one commit record in the shared redo
// log, consecutive commit timestamps from the shared oracle, and
// all-or-nothing visibility per table — and, after a crash, all-or-nothing
// recovery, on one table or many. It returns ErrWriteConflict if any
// table's write set conflicts with a commit after this transaction first
// touched that table.
//
// The transaction manager serializes commits with each other
// (first-committer-wins needs an atomic validate-and-publish) but not
// with scans or standalone updates. The write set is one redo record
// whatever the number of tables, so it inherits the record bound: a
// commit whose encoded write set exceeds 64 MiB is refused with an error
// and publishes nothing.
//
// Commit admission, the same as a Table write's: while a migration
// scheduler runs, a commit that finds a table it wrote, or the engine's
// shared cache, at the migration threshold kicks the scheduler once it
// has published; and a commit does not publish into a cache that
// migration has not caught up with. At AdmitFill (or the engine's
// migration threshold, if higher), Commit first releases the
// transaction's snapshots — it reads nothing more, and its own reader
// would otherwise veto the migration it waits for — then kicks the
// scheduler and waits, holding no engine lock, until a sweep brings the
// fill back under. After two seconds it gives up: the transaction is
// aborted, nothing of it is published, and Commit returns
// ErrBackpressure, which a caller may retry after a backoff. Without a
// scheduler (manual migration) every commit is admitted at once.
//
// A Commit that fails partway through publication (e.g. a table's update
// cache is exhausted mid-batch) may leave a stamped prefix of its writes
// applied — there is no undo log to roll them back, first-committer-wins
// validation stays sound (the write set is conservatively recorded), and
// migration is the way to clear the exhaustion. Because the commit record
// goes down before publication (what makes the commit crash-atomic), a
// crash after such a failure replays the whole write set: a failed Commit
// is "partially applied now, possibly fully applied after recovery" —
// never torn after recovery. See masm.CommitAcross for the full rationale.
func (tx *EngineTx) Commit() error {
	e := tx.eng
	tx.mu.Lock()
	if tx.done {
		tx.mu.Unlock()
		return txn.ErrDone
	}
	// Once done is set nothing changes tx.subs, and a call racing this one
	// gets ErrDone without waiting out the admission below.
	tx.done = true
	tx.mu.Unlock()
	subs := make([]*txn.Txn, 0, len(tx.subs))
	var wrote []*Table
	e.mu.RLock()
	for name, s := range tx.subs {
		subs = append(subs, s)
		if t := e.tables[name]; t != nil && s.Wrote() {
			wrote = append(wrote, t)
		}
	}
	e.mu.RUnlock()
	releaseReads := func() {
		for _, s := range subs {
			s.ReleaseReads()
		}
	}
	due, err := e.admit(releaseReads, wrote...)
	if err != nil {
		for _, s := range subs {
			s.Abort()
		}
		return err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		for _, s := range subs {
			s.Abort()
		}
		return ErrClosed
	}
	if len(subs) == 0 {
		return nil
	}
	end, err := subs[0].Commit(e.clock.now(), subs[1:]...)
	runtime.KeepAlive(tx)
	if err != nil {
		return err
	}
	e.clock.advance(end)
	if due != nil {
		due.Kick()
	}
	return nil
}

// Abort discards the transaction, releasing every touched table's
// snapshot.
func (tx *EngineTx) Abort() {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.done {
		return
	}
	tx.done = true
	for _, s := range tx.subs {
		s.Abort()
	}
	runtime.KeepAlive(tx)
}
