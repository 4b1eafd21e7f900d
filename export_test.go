package masm

// Seams for the recovery differential tests (package masm_test): the inline,
// priced run rebuild — recoverTables with zero workers — is the reference the
// concurrent shape every caller gets is compared against.

func OpenEngineDirInlineRebuild(dir string, opts EngineDirOptions) (*Engine, error) {
	return openEngineDir(dir, opts, 0)
}

func (e *Engine) CrashInlineRebuild() (*Engine, error) { return e.crash(0) }
