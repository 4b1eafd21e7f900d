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

// SetCommitAdmitWait shortens how long a commit waits for migration before
// ErrBackpressure, for the rest of the test.
func SetCommitAdmitWait(t testing.TB, d time.Duration) {
	old := commitAdmitWait
	commitAdmitWait = d
	t.Cleanup(func() { commitAdmitWait = old })
}
