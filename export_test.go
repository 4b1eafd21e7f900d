package masm

import (
	"testing"
	"time"
)

// Seams for the recovery differential tests (package masm_test): the inline,
// priced run rebuild — recoverTables with zero workers — is the reference the
// concurrent shape every caller gets is compared against.

func OpenEngineDirInlineRebuild(dir string, opts EngineDirOptions) (*Engine, error) {
	return openEngineDir(dir, opts, 0)
}

func (e *Engine) CrashInlineRebuild() (*Engine, error) { return e.crash(0) }

// SetAdmitWait sets how long a write waits for migration before
// ErrBackpressure, for the rest of the test.
func SetAdmitWait(t testing.TB, d time.Duration) {
	old := admitWait
	admitWait = d
	t.Cleanup(func() { admitWait = old })
}

// SlotLedger reports the table's main-store slot ledger: live, free and
// retired slots and the allocation cursor.
func (t *Table) SlotLedger() (live, free, retired, next int64) { return t.tbl.SlotCounts() }
