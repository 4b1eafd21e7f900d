package masm_test

import (
	"fmt"
	"testing"

	"masm"
	"masm/internal/chaos"
	"masm/internal/storage"
)

// commitCrashRows is the size of the write set TestCommitCrashAtomic
// commits: 150 inserts of 100-byte bodies, several group-commit buffers'
// worth of redo.
const commitCrashRows = 150

// commitWriteSet buffers commitCrashRows inserts in one transaction, dealt
// round-robin over tables, and commits it.
func commitWriteSet(eng *masm.Engine, tables []string) error {
	tx, err := eng.BeginTx(masm.TxSnapshot)
	if err != nil {
		return err
	}
	for i := 0; i < commitCrashRows; i++ {
		if err := tx.Insert(tables[i%len(tables)], uint64(i+1), []byte(fmt.Sprintf("%0100d", i))); err != nil {
			return err
		}
	}
	return tx.Commit()
}

// countRows totals the rows of tables.
func countRows(t *testing.T, eng *masm.Engine, tables []string) int {
	t.Helper()
	n := 0
	for _, name := range tables {
		tbl, err := eng.OpenTable(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.Scan(0, ^uint64(0), func(uint64, []byte) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// TestCommitCrashAtomic is the shrunk repro of the one-table commit that
// recovered as a prefix: a committed transaction is all-or-nothing after a
// crash (paper §3.6) whatever its arity and whether or not the covering
// Sync happened. Before every commit became one redo frame, a one-table
// commit was logged record by record and the group-commit buffer forced
// it in pieces — 128 of these 150 rows survived the in-memory crash.
func TestCommitCrashAtomic(t *testing.T) {
	t.Run("mem", func(t *testing.T) {
		eng, err := masm.NewEngine(masm.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		tables := []string{"a"}
		if _, err := eng.CreateTable("a", masm.TableOptions{}); err != nil {
			t.Fatal(err)
		}
		if err := commitWriteSet(eng, tables); err != nil {
			t.Fatal(err)
		}
		eng2, err := eng.Crash() // no Sync: the commit's tail is still buffered
		if err != nil {
			t.Fatal(err)
		}
		defer eng2.Close()
		if n := countRows(t, eng2, tables); n != 0 && n != commitCrashRows {
			t.Fatalf("crash after an unsynced commit recovered %d of %d rows", n, commitCrashRows)
		}
	})

	// File-backed: cut the WAL's power at every fsync from Commit through
	// the following Sync, strictly (everything un-synced lost) and with the
	// OS having flushed a random, possibly torn, subset on its own.
	open := func(t *testing.T, dir string, wal **chaos.FaultBackend, seed int64) *masm.Engine {
		opts := masm.EngineDirOptions{DataBytes: 256 << 20}
		if wal != nil {
			opts.WrapBackend = func(name string, be storage.Backend) storage.Backend {
				if name != "wal.log" {
					return be
				}
				*wal = chaos.NewFaultBackend(be, name, seed)
				return *wal
			}
		}
		eng, err := masm.OpenEngineDir(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	for _, tables := range [][]string{{"a"}, {"a", "b"}} {
		for _, torn := range []bool{false, true} {
			t.Run(fmt.Sprintf("file/%dtables/torn=%v", len(tables), torn), func(t *testing.T) {
				for delta := int64(1); ; delta++ {
					dir := t.TempDir()
					var wal *chaos.FaultBackend
					eng := open(t, dir, &wal, delta)
					for _, name := range tables {
						if _, err := eng.CreateTable(name, masm.TableOptions{}); err != nil {
							t.Fatal(err)
						}
					}
					if err := eng.Sync(); err != nil {
						t.Fatal(err)
					}
					keepProb := 0.0
					if torn {
						keepProb = 0.5
					}
					wal.ArmCrashAtSync(delta, keepProb, torn)
					err := commitWriteSet(eng, tables)
					if err == nil {
						err = eng.Sync()
					}
					if crashed := wal.Crashed(); crashed != (err != nil) {
						t.Fatalf("sync %d: crashed=%v but commit+sync returned %v", delta, crashed, err)
					}
					if herr := eng.HardStop(); herr != nil {
						t.Fatal(herr)
					}
					eng2 := open(t, dir, nil, 0)
					n := countRows(t, eng2, tables)
					eng2.Close()
					if err == nil {
						// The armed fsync lies beyond the Sync: nothing failed,
						// the sweep is complete, and the commit is durable.
						if n != commitCrashRows {
							t.Fatalf("Sync returned, yet only %d of %d rows survived the stop", n, commitCrashRows)
						}
						if delta == 1 {
							t.Fatal("sweep vacuous: commit and Sync issued no WAL fsync")
						}
						return
					}
					if n != 0 && n != commitCrashRows {
						t.Fatalf("power cut at fsync %d after the commit began: %d of %d rows recovered", delta, n, commitCrashRows)
					}
				}
			})
		}
	}
}
