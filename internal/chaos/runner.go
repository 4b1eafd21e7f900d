package chaos

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"strings"

	"masm"
	"masm/internal/storage"
)

// Options configures a scenario.
type Options struct {
	// Seed drives everything: trace generation, crash-survivor lotteries,
	// body contents. Same seed, same options ⇒ bit-identical run.
	Seed int64
	// Steps is the trace length.
	Steps int
	// Dir is the working database directory; empty means a fresh temp dir
	// removed afterwards. A non-empty Dir must point at an empty (or
	// absent) directory — execution starts from a pristine database — and
	// is left in place after a failure for inspection (shrink replays use
	// their own temp dirs).
	Dir string
	// Tables is the number of table slots (concurrently live tables).
	Tables int
	// KeySpace bounds record keys (small = heavy key collisions).
	KeySpace uint64
	// CacheBytes is the engine's shared SSD update-cache size.
	CacheBytes int64
	// BodyLen is the fixed record body length; values below 48 are raised
	// to 48 (OpModify patches 8 bytes at offsets up to 39).
	BodyLen int
	// BulkRows is the bulk-load size of each created table.
	BulkRows int
	// PlantWALSyncDrop, when non-zero, plants a fault: the WAL backend's
	// n-th fsync of the first engine generation silently drops its writes
	// while reporting success — the "engine skipped a required fsync" bug.
	// The oracle is expected to catch it at the next crash.
	PlantWALSyncDrop int64
	// BreakMetricAtStep, when non-zero, plants an observability fault: at
	// the n-th step the harness perturbs a mirrored gauge directly through
	// the registry, exactly as a missed instrumentation site would. The
	// metrics probe is expected to catch it at the next check.
	BreakMetricAtStep int
	// Verbose, when non-nil, receives progress lines.
	Verbose io.Writer
}

func (o Options) withDefaults() Options {
	if o.Steps <= 0 {
		o.Steps = 5000
	}
	if o.Tables <= 0 {
		o.Tables = 3
	}
	if o.KeySpace == 0 {
		o.KeySpace = 1024
	}
	if o.CacheBytes <= 0 {
		o.CacheBytes = 1 << 20
	}
	if o.BodyLen < 48 {
		o.BodyLen = 64
	}
	if o.BulkRows <= 0 {
		o.BulkRows = 160
	}
	return o
}

func (o Options) snapSlots() int { return 3 }
func (o Options) txSlots() int   { return 2 }

// Failure is one oracle violation, pinned to its step.
type Failure struct {
	Step   int
	Op     Op
	Check  string // "durability", "scan", "snapshot", "invariant", "catalog", "recovery", "metrics", "engine-error"
	Detail string
}

func (f *Failure) Error() string {
	return fmt.Sprintf("step %d (%s): %s check failed: %s", f.Step, f.Op, f.Check, f.Detail)
}

// Result summarizes an executed scenario.
type Result struct {
	Steps   int
	Crashes int
	Reopens int
	// Hash is the final state hash: every table's full contents plus the
	// virtual clock. Two runs of the same (seed, options) must produce the
	// same hash — that determinism is itself regression-tested.
	Hash    uint64
	Failure *Failure
	// Trace is the executed trace; on failure, ShrunkTrace is its
	// delta-debugged minimization and Repro a runnable Go test.
	Trace       []Op
	ShrunkTrace []Op
	Repro       string
}

// Run generates the seeded trace, executes it, and on failure shrinks the
// trace and renders a repro. The returned error reports harness-level
// problems only (e.g. temp dir creation); oracle violations are in
// Result.Failure.
func Run(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	ops := GenTrace(opts.Seed, opts.Steps, opts)
	res, err := Execute(opts, ops)
	if err != nil {
		return nil, err
	}
	if res.Failure != nil {
		res.ShrunkTrace = Shrink(opts, ops, res.Failure)
		res.Repro = FormatRepro(fmt.Sprintf("ChaosReproSeed%d", opts.Seed), opts, res.ShrunkTrace)
	}
	return res, nil
}

// Execute runs an explicit op trace against a fresh engine, checking the
// oracle throughout, and always finishes with a full invariant + state
// check. It is the replay entry point for shrunk repros.
func Execute(opts Options, ops []Op) (*Result, error) {
	opts = opts.withDefaults()
	dir := opts.Dir
	if dir == "" {
		d, err := os.MkdirTemp("", "masm-chaos-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(d)
		dir = d
	}
	x := &exec{opts: opts, dir: dir, model: newModel()}
	res := &Result{Trace: ops}
	if err := x.openEngine(); err != nil {
		return nil, fmt.Errorf("chaos: initial open: %w", err)
	}
	defer func() {
		if x.eng != nil {
			x.closeActors()
			x.eng.Close()
		}
	}()
	// Seed the catalog: two tables up front so every op kind has something
	// to act on from step 0.
	for slot := 0; slot < 2 && slot < opts.Tables; slot++ {
		if f := x.createTable(0, Op{Kind: OpCreateTable, Slot: slot}); f != nil {
			res.Failure = f
			return res, nil
		}
	}
	for i, op := range ops {
		if f := x.step(i, op); f != nil {
			res.Failure = f
			res.Steps = i
			return res, nil
		}
		if x.opts.Verbose != nil && (i+1)%5000 == 0 {
			fmt.Fprintf(x.opts.Verbose, "chaos: step %d/%d (crashes %d, reopens %d)\n", i+1, len(ops), x.crashes, x.reopens)
		}
	}
	// Final verdict: invariants, full scan-vs-model, state hash.
	if f := x.check(len(ops), Op{Kind: OpCheck}); f != nil {
		res.Failure = f
		res.Steps = len(ops)
		return res, nil
	}
	hash, f := x.stateHash(len(ops))
	if f != nil {
		res.Failure = f
		res.Steps = len(ops)
		return res, nil
	}
	res.Hash = hash
	res.Steps = len(ops)
	res.Crashes = x.crashes
	res.Reopens = x.reopens
	return res, nil
}

// snapState is one held snapshot actor: the engine snapshot plus the model
// state (and ghost set) captured when it was opened.
type snapState struct {
	slot   int
	snap   *masm.Snapshot
	want   map[uint64][]byte
	ghosts map[uint64]bool
}

// txState is one open transaction actor: the engine transaction plus a
// per-table overlay (model state at first touch + the tx's own writes, in
// write order for journal replay on commit).
type txState struct {
	tx      *masm.EngineTx
	touched map[int]*txTable
}

type txTable struct {
	base   map[uint64][]byte // model rows at first touch
	ghosts map[uint64]bool
	view   map[uint64][]byte // base + own writes
	writes []jop             // own writes in order
}

type exec struct {
	opts    Options
	dir     string
	eng     *masm.Engine
	gen     int
	crashes int
	reopens int
	// backends maps role ("wal", "cache", "data") to the ACTIVE generation
	// fault backend.
	backends map[string]*FaultBackend
	model    *model
	probe    metricsProbe
	snaps    []*snapState
	txs      []*txState
	// created counts CreateTable calls per slot, for unique names.
	created map[int]int
}

// roleFor maps a directory file name to its backend role. During
// recovery the checkpoint log wal.log.new is opened after the old
// wal.log and becomes the live log once recovery renames it, so it takes
// the "wal" role over.
func roleFor(name string) string {
	switch name {
	case "wal.log", "wal.log.new":
		return "wal"
	case "cache.runs":
		return "cache"
	case "main.data":
		return "data"
	}
	return name
}

func hashName(s string) int64 {
	h := fnv.New64a()
	io.WriteString(h, s)
	return int64(h.Sum64())
}

// openEngine opens (or reopens) the directory with a fresh generation of
// fault backends.
func (x *exec) openEngine() error {
	x.gen++
	gen := x.gen
	x.backends = make(map[string]*FaultBackend)
	cfg := masm.DefaultConfig()
	cfg.CacheBytes = x.opts.CacheBytes
	cfg.MigrateThreshold = 0.85
	eopts := masm.EngineDirOptions{Config: cfg, DataBytes: 4 << 30}
	eopts.WrapBackend = func(name string, be storage.Backend) storage.Backend {
		fb := NewFaultBackend(be, name, x.opts.Seed^(int64(gen)<<20)^hashName(name))
		if x.opts.PlantWALSyncDrop > 0 && gen == 1 && name == "wal.log" {
			fb.SetPlan(Plan{DropSync: map[int64]bool{x.opts.PlantWALSyncDrop: true}})
		}
		x.backends[roleFor(name)] = fb
		return fb
	}
	eng, err := masm.OpenEngineDir(x.dir, eopts)
	if err != nil {
		return err
	}
	x.eng = eng
	if x.snaps == nil {
		x.snaps = make([]*snapState, x.opts.snapSlots())
		x.txs = make([]*txState, x.opts.txSlots())
		x.created = make(map[int]int)
	}
	x.resetMetricsProbe()
	return nil
}

// closeActors closes every open snapshot and aborts every open
// transaction (pure in-memory operations, safe even on a crashed engine).
func (x *exec) closeActors() {
	for i, s := range x.snaps {
		if s != nil {
			s.snap.Close()
			x.snaps[i] = nil
		}
	}
	for i, t := range x.txs {
		if t != nil {
			t.tx.Abort()
			x.txs[i] = nil
		}
	}
}

func (x *exec) anyCrashed() bool {
	for _, fb := range x.backends {
		if fb.Crashed() {
			return true
		}
	}
	return false
}

// isTransient reports errors that mean "not now", leaving all state
// unchanged: the op becomes a no-op.
func isTransient(err error) bool {
	for _, t := range []error{
		masm.ErrActiveQueries, masm.ErrMigrationInProgress, masm.ErrTableBusy,
		masm.ErrTableDropped, masm.ErrNoTable, masm.ErrSnapshotClosed,
	} {
		if errors.Is(err, t) {
			return true
		}
	}
	return false
}

// isCapacity reports ENOSPC-like conditions: the engine refused the work
// losslessly because a budget or volume is full.
func isCapacity(err error) bool {
	s := err.Error()
	return strings.Contains(s, "cache budget") ||
		strings.Contains(s, "update cache full") ||
		strings.Contains(s, "main.data full") ||
		strings.Contains(s, "update buffer")
}

func (x *exec) fail(step int, op Op, check, format string, args ...any) *Failure {
	return &Failure{Step: step, Op: op, Check: check, Detail: fmt.Sprintf(format, args...)}
}

// bodyFor renders the deterministic fixed-length record body for a key.
func (x *exec) bodyFor(key uint64, seed int64) []byte {
	b := make([]byte, x.opts.BodyLen)
	s := fmt.Sprintf("k%016x s%016x ", key, uint64(seed))
	n := copy(b, s)
	for i := n; i < len(b); i++ {
		b[i] = 'a' + byte((uint64(i)+uint64(seed))%26)
	}
	return b
}

// step executes one op. A nil return means the scenario continues.
func (x *exec) step(i int, op Op) *Failure {
	if x.opts.BreakMetricAtStep > 0 && i == x.opts.BreakMetricAtStep {
		// The planted observability fault: skew a mirrored gauge behind the
		// engine's back. Reconciliation must flag it at the next check.
		x.eng.Registry().Gauge("masm_pool_used_bytes").Add(1)
	}
	t, haveTable := x.model.tables[op.Slot]
	var tbl *masm.Table
	if haveTable {
		var err error
		tbl, err = x.eng.OpenTable(t.name)
		if err != nil {
			if x.anyCrashed() {
				return x.recoverCrash(i, op)
			}
			return x.fail(i, op, "catalog", "model table %q unknown to engine: %v", t.name, err)
		}
	}
	needTable := func() bool { return haveTable }

	switch op.Kind {
	case OpInsert, OpDelete, OpModify:
		if !needTable() {
			return nil
		}
		var err error
		var val []byte // nil means delete
		switch op.Kind {
		case OpInsert:
			val = x.bodyFor(op.Key, op.A)
			err = tbl.Insert(op.Key, val)
		case OpDelete:
			err = tbl.Delete(op.Key)
		case OpModify:
			cur, ok := t.rows[op.Key]
			if !ok || t.ghosts[op.Key] {
				return nil // needs a known current value
			}
			off := 8 + int(op.A%32)
			patch := make([]byte, 8)
			binary.LittleEndian.PutUint64(patch, uint64(op.A))
			val = append([]byte(nil), cur...)
			copy(val[off:off+8], patch)
			err = tbl.Modify(op.Key, off, patch)
		}
		if err != nil {
			// The update may already sit in the redo log: its key's
			// post-recovery fate is unknown either way.
			x.model.ghost(op.Slot, op.Key)
			if x.anyCrashed() {
				return x.recoverCrash(i, op)
			}
			if isTransient(err) || isCapacity(err) {
				return nil
			}
			return x.fail(i, op, "engine-error", "%v", err)
		}
		x.model.ack(op.Slot, op.Key, val)
		return nil

	case OpGet:
		if !needTable() {
			return nil
		}
		body, ok, err := tbl.Get(op.Key)
		if err != nil {
			if x.anyCrashed() {
				return x.recoverCrash(i, op)
			}
			return x.fail(i, op, "engine-error", "Get(%d): %v", op.Key, err)
		}
		// The equivalent query: the point lookup and a one-key range scan
		// must agree whatever the model says (ghost keys included).
		var ref []byte
		rok := false
		if err := tbl.Scan(op.Key, op.Key, func(_ uint64, b []byte) bool {
			ref, rok = append([]byte(nil), b...), true
			return false
		}); err != nil {
			if x.anyCrashed() {
				return x.recoverCrash(i, op)
			}
			return x.fail(i, op, "engine-error", "Scan(%d,%d): %v", op.Key, op.Key, err)
		}
		if ok != rok || !bytesEqual(body, ref) {
			return x.fail(i, op, "scan", "Get(%d) = (%q,%v) but Scan(%d,%d) = (%q,%v)", op.Key, body, ok, op.Key, op.Key, ref, rok)
		}
		if t.ghosts[op.Key] {
			return nil
		}
		want, wok := t.rows[op.Key]
		if ok != wok || (ok && !bytesEqual(body, want)) {
			return x.fail(i, op, "scan", "Get(%d) = (%q,%v), model (%q,%v)", op.Key, body, ok, want, wok)
		}
		return nil

	case OpScan:
		if !needTable() {
			return nil
		}
		end := uint64(op.A)
		var got []kv
		err := tbl.Scan(op.Key, end, func(k uint64, b []byte) bool {
			got = append(got, kv{k, append([]byte(nil), b...)})
			return true
		})
		if err != nil {
			if x.anyCrashed() {
				return x.recoverCrash(i, op)
			}
			return x.fail(i, op, "engine-error", "Scan: %v", err)
		}
		if err := x.model.checkScan(op.Slot, op.Key, end, got); err != nil {
			return x.fail(i, op, "scan", "%v", err)
		}
		return nil

	case OpQuery:
		if !needTable() {
			return nil
		}
		spec := querySpecFor(op)
		var got []kv
		err := tbl.Query(spec, func(k uint64, b []byte) bool {
			got = append(got, kv{k, append([]byte(nil), b...)})
			return true
		})
		if err != nil {
			if x.anyCrashed() {
				return x.recoverCrash(i, op)
			}
			if isTransient(err) || isCapacity(err) {
				return nil
			}
			return x.fail(i, op, "engine-error", "Query: %v", err)
		}
		if err := x.model.checkQuery(op.Slot, spec, got); err != nil {
			return x.fail(i, op, "scan", "%v", err)
		}
		return nil

	case OpSync:
		if err := x.eng.Sync(); err != nil {
			if x.anyCrashed() {
				return x.recoverCrash(i, op)
			}
			return x.fail(i, op, "engine-error", "Sync: %v", err)
		}
		x.model.synced()
		return nil

	case OpFlush:
		if !needTable() {
			return nil
		}
		if err := tbl.Flush(); err != nil {
			if x.anyCrashed() {
				return x.recoverCrash(i, op)
			}
			if isTransient(err) || isCapacity(err) {
				return nil
			}
			return x.fail(i, op, "engine-error", "Flush: %v", err)
		}
		return nil

	case OpMigrate:
		if !needTable() {
			return nil
		}
		if err := tbl.Migrate(); err != nil {
			if x.anyCrashed() {
				return x.recoverCrash(i, op)
			}
			if isTransient(err) || isCapacity(err) {
				return nil
			}
			return x.fail(i, op, "engine-error", "Migrate: %v", err)
		}
		return nil

	case OpMigrateStep:
		if !needTable() {
			return nil
		}
		if _, err := tbl.MigrateStep(op.Aux); err != nil {
			if x.anyCrashed() {
				return x.recoverCrash(i, op)
			}
			if isTransient(err) || isCapacity(err) {
				return nil
			}
			return x.fail(i, op, "engine-error", "MigrateStep: %v", err)
		}
		return nil

	case OpMigratePressured:
		if _, _, err := x.eng.MigrateIfPressured(); err != nil {
			if x.anyCrashed() {
				return x.recoverCrash(i, op)
			}
			if isCapacity(err) {
				return nil
			}
			return x.fail(i, op, "engine-error", "MigrateIfPressured: %v", err)
		}
		return nil

	case OpSnapOpen:
		if !needTable() {
			return nil
		}
		if s := x.snaps[op.Aux]; s != nil {
			s.snap.Close()
			x.snaps[op.Aux] = nil
		}
		snap, err := tbl.Snapshot()
		if err != nil {
			if x.anyCrashed() {
				return x.recoverCrash(i, op)
			}
			if isTransient(err) {
				return nil
			}
			return x.fail(i, op, "engine-error", "Snapshot: %v", err)
		}
		x.snaps[op.Aux] = &snapState{
			slot:   op.Slot,
			snap:   snap,
			want:   copyRows(t.rows),
			ghosts: copyGhosts(t.ghosts),
		}
		return nil

	case OpSnapScan:
		s := x.snaps[op.Aux]
		if s == nil {
			return nil
		}
		if _, live := x.model.tables[s.slot]; !live {
			return nil // table dropped under the snapshot (engine forbids; belt and braces)
		}
		var got []kv
		err := s.snap.Scan(0, ^uint64(0), func(k uint64, b []byte) bool {
			got = append(got, kv{k, append([]byte(nil), b...)})
			return true
		})
		if err != nil {
			if x.anyCrashed() {
				return x.recoverCrash(i, op)
			}
			if isTransient(err) {
				return nil
			}
			return x.fail(i, op, "engine-error", "snapshot scan: %v", err)
		}
		if err := diffStates(s.want, got, s.ghosts, "snapshot re-read"); err != nil {
			return x.fail(i, op, "snapshot", "%v", err)
		}
		return nil

	case OpSnapClose:
		if s := x.snaps[op.Aux]; s != nil {
			s.snap.Close()
			x.snaps[op.Aux] = nil
		}
		return nil

	case OpTxBegin:
		if tx := x.txs[op.Aux]; tx != nil {
			tx.tx.Abort()
			x.txs[op.Aux] = nil
		}
		tx, err := x.eng.BeginTx(masm.TxSnapshot)
		if err != nil {
			if x.anyCrashed() {
				return x.recoverCrash(i, op)
			}
			return x.fail(i, op, "engine-error", "BeginTx: %v", err)
		}
		x.txs[op.Aux] = &txState{tx: tx, touched: make(map[int]*txTable)}
		return nil

	case OpTxInsert, OpTxDelete, OpTxGet:
		tx := x.txs[op.Aux]
		if tx == nil || !haveTable {
			return nil
		}
		tt := tx.touched[op.Slot]
		if tt == nil {
			tt = &txTable{base: copyRows(t.rows), ghosts: copyGhosts(t.ghosts)}
			tt.view = copyRows(tt.base)
			tx.touched[op.Slot] = tt
		}
		switch op.Kind {
		case OpTxInsert:
			val := x.bodyFor(op.Key, op.A)
			if err := tx.tx.Insert(t.name, op.Key, val); err != nil {
				if x.anyCrashed() {
					return x.recoverCrash(i, op)
				}
				if isTransient(err) {
					return nil
				}
				return x.fail(i, op, "engine-error", "tx insert: %v", err)
			}
			tt.view[op.Key] = val
			tt.writes = append(tt.writes, jop{slot: op.Slot, key: op.Key, val: val})
		case OpTxDelete:
			if err := tx.tx.Delete(t.name, op.Key); err != nil {
				if x.anyCrashed() {
					return x.recoverCrash(i, op)
				}
				if isTransient(err) {
					return nil
				}
				return x.fail(i, op, "engine-error", "tx delete: %v", err)
			}
			delete(tt.view, op.Key)
			tt.writes = append(tt.writes, jop{slot: op.Slot, key: op.Key, val: nil})
		case OpTxGet:
			body, ok, err := tx.tx.Get(t.name, op.Key)
			if err != nil {
				if x.anyCrashed() {
					return x.recoverCrash(i, op)
				}
				if isTransient(err) {
					return nil
				}
				return x.fail(i, op, "engine-error", "tx get: %v", err)
			}
			if tt.ghosts[op.Key] {
				return nil
			}
			want, wok := tt.view[op.Key]
			if ok != wok || (ok && !bytesEqual(body, want)) {
				return x.fail(i, op, "scan", "tx Get(%d) = (%q,%v), tx view (%q,%v)", op.Key, body, ok, want, wok)
			}
		}
		return nil

	case OpTxCommit:
		tx := x.txs[op.Aux]
		if tx == nil {
			return nil
		}
		x.txs[op.Aux] = nil
		err := tx.tx.Commit()
		if err != nil {
			ghostWrites := func() {
				for slot, tt := range tx.touched {
					for _, w := range tt.writes {
						x.model.ghost(slot, w.key)
					}
					_ = slot
				}
			}
			if x.anyCrashed() {
				ghostWrites()
				return x.recoverCrash(i, op)
			}
			if errors.Is(err, masm.ErrWriteConflict) {
				return nil // discarded cleanly, nothing published
			}
			if isTransient(err) || isCapacity(err) {
				// A commit that failed mid-publication may have applied a
				// stamped prefix now and may replay fully after recovery:
				// every written key's state is officially unknown.
				ghostWrites()
				return nil
			}
			return x.fail(i, op, "engine-error", "tx commit: %v", err)
		}
		// Publication order = table-id order, each table's writes in op
		// order — mirror it in the journal, as one commit group.
		slots := make([]int, 0, len(tx.touched))
		for slot := range tx.touched {
			slots = append(slots, slot)
		}
		sortSlotsByTableID(x.model, slots)
		var writes []jop
		for _, slot := range slots {
			if _, live := x.model.tables[slot]; live {
				writes = append(writes, tx.touched[slot].writes...)
			}
		}
		x.model.ackCommit(writes)
		return nil

	case OpTxAbort:
		if tx := x.txs[op.Aux]; tx != nil {
			tx.tx.Abort()
			x.txs[op.Aux] = nil
		}
		return nil

	case OpCreateTable:
		if haveTable {
			return nil
		}
		return x.createTable(i, op)

	case OpDropTable:
		if !haveTable {
			return nil
		}
		if err := x.eng.DropTable(t.name); err != nil {
			if x.anyCrashed() {
				return x.recoverCrash(i, op)
			}
			if isTransient(err) {
				return nil
			}
			return x.fail(i, op, "engine-error", "DropTable: %v", err)
		}
		x.model.dropTable(op.Slot)
		return nil

	case OpReopen:
		return x.reopen(i, op)

	case OpCrash:
		// Every backend — main.data included — gets an arbitrary per-write
		// survivor lottery with torn tails. Shadow-paged migration removed
		// the old all-or-nothing clamp on main.data: no committed page is
		// ever overwritten, so any survivor subset of un-committed shadow
		// writes is harmless by construction.
		for _, fb := range x.backends {
			keep := float64(op.A) / 100
			fb.SetPlan(Plan{KeepProb: keep, TornWrites: keep > 0})
			fb.CrashNow()
		}
		return x.recoverCrash(i, op)

	case OpCrashAtSync:
		role := []string{"wal", "cache", "data"}[op.Aux%backendCount]
		if fb := x.backends[role]; fb != nil {
			keep := float64(op.B) / 100
			fb.ArmCrashAtSync(op.A, keep, op.B > 0)
		}
		return nil

	case OpCheck:
		return x.check(i, op)
	}
	return nil
}

// createTable creates the slot's table with a deterministic bulk load.
func (x *exec) createTable(step int, op Op) *Failure {
	slot := op.Slot
	x.created[slot]++
	name := fmt.Sprintf("t%d-g%d-c%d", slot, x.gen, x.created[slot])
	keys := make([]uint64, x.opts.BulkRows)
	bodies := make([][]byte, x.opts.BulkRows)
	rows := make(map[uint64][]byte, x.opts.BulkRows)
	for i := range keys {
		keys[i] = uint64(2 * (i + 1))
		bodies[i] = x.bodyFor(keys[i], int64(slot))
		rows[keys[i]] = bodies[i]
	}
	t, err := x.eng.CreateTable(name, masm.TableOptions{Keys: keys, Bodies: bodies})
	if err != nil {
		if x.anyCrashed() {
			return x.recoverCrash(step, op)
		}
		if isCapacity(err) {
			return nil
		}
		return x.fail(step, op, "engine-error", "CreateTable: %v", err)
	}
	x.model.createTable(slot, name, t.ID(), rows)
	return nil
}

// reopen performs a clean close + reopen + exact-state verification.
func (x *exec) reopen(step int, op Op) *Failure {
	x.closeActors()
	if err := x.eng.Close(); err != nil {
		if x.anyCrashed() {
			// An armed crash fired during the shutdown syncs: the clean
			// close degraded into a real crash.
			return x.recoverCrash(step, op)
		}
		return x.fail(step, op, "engine-error", "Close: %v", err)
	}
	if err := x.openEngine(); err != nil {
		return x.fail(step, op, "recovery", "reopen after clean close: %v", err)
	}
	got, f := x.scanAll(step, op)
	if f != nil {
		return f
	}
	if err := x.model.adoptReopen(got); err != nil {
		return x.fail(step, op, "durability", "%v", err)
	}
	if f := x.checkCatalog(step, op); f != nil {
		return f
	}
	x.reopens++
	return nil
}

// recoverCrash handles a crashed engine: power off whatever is still on,
// hard-stop, reopen, and run the committed-prefix durability check.
func (x *exec) recoverCrash(step int, op Op) *Failure {
	x.closeActors()
	for _, fb := range x.backends {
		fb.CrashNow()
	}
	x.eng.HardStop() // best effort; the files are dead anyway
	if err := x.openEngine(); err != nil {
		return x.fail(step, op, "recovery", "reopen after crash: %v", err)
	}
	got, f := x.scanAll(step, op)
	if f != nil {
		return f
	}
	if err := x.model.adoptCrash(got); err != nil {
		return x.fail(step, op, "durability", "%v", err)
	}
	if f := x.checkCatalog(step, op); f != nil {
		return f
	}
	x.crashes++
	return nil
}

// scanAll reads every model table in full from the engine, also verifying
// the engine's table list matches the model's.
func (x *exec) scanAll(step int, op Op) (map[int][]kv, *Failure) {
	names := make(map[string]int, len(x.model.tables))
	for slot, t := range x.model.tables {
		names[t.name] = slot
	}
	engTables := x.eng.Tables()
	if len(engTables) != len(names) {
		return nil, x.fail(step, op, "catalog", "engine lists %d tables %v, model expects %d", len(engTables), engTables, len(names))
	}
	for _, n := range engTables {
		if _, ok := names[n]; !ok {
			return nil, x.fail(step, op, "catalog", "engine lists unexpected table %q", n)
		}
	}
	got := make(map[int][]kv, len(names))
	// Scan in slot order: the scans issue real (simulated) disk reads, and
	// with shadow paging a table's pages are no longer one contiguous run,
	// so the inter-table scan order changes seek classification — map
	// iteration order here would make the run's virtual clock (and the
	// state hash built on it) nondeterministic.
	for _, slot := range x.model.slotOrder() {
		t := x.model.tables[slot]
		tbl, err := x.eng.OpenTable(t.name)
		if err != nil {
			return nil, x.fail(step, op, "catalog", "OpenTable(%q): %v", t.name, err)
		}
		var rows []kv
		err = tbl.Scan(0, ^uint64(0), func(k uint64, b []byte) bool {
			rows = append(rows, kv{k, append([]byte(nil), b...)})
			return true
		})
		if err != nil {
			return nil, x.fail(step, op, "engine-error", "post-restart scan of %q: %v", t.name, err)
		}
		got[slot] = rows
	}
	return got, nil
}

// checkCatalog verifies ids survived and are below the watermark (the
// never-recycle rule).
func (x *exec) checkCatalog(step int, op Op) *Failure {
	for _, t := range x.model.tables {
		et, err := x.eng.OpenTable(t.name)
		if err != nil {
			return x.fail(step, op, "catalog", "OpenTable(%q): %v", t.name, err)
		}
		if et.ID() != t.id {
			return x.fail(step, op, "catalog", "table %q changed id %d -> %d across restart", t.name, t.id, et.ID())
		}
	}
	return nil
}

// check runs the invariant probes, the metrics probe, and the full
// scan-vs-model comparison.
func (x *exec) check(step int, op Op) *Failure {
	if err := x.eng.CheckInvariants(); err != nil {
		if x.anyCrashed() {
			return x.recoverCrash(step, op)
		}
		return x.fail(step, op, "invariant", "%v", err)
	}
	if f := x.checkMetrics(step, op); f != nil {
		if x.anyCrashed() {
			return x.recoverCrash(step, op)
		}
		return f
	}
	got, f := x.scanAll(step, op)
	if f != nil {
		if x.anyCrashed() {
			return x.recoverCrash(step, op)
		}
		return f
	}
	// Slot order again, so which table's divergence is reported first (and
	// therefore the shrink target) is deterministic.
	for _, slot := range x.model.slotOrder() {
		t := x.model.tables[slot]
		if err := diffStates(t.rows, got[slot], t.ghosts, fmt.Sprintf("table %q full check", t.name)); err != nil {
			return x.fail(step, op, "scan", "%v", err)
		}
	}
	return nil
}

// stateHash hashes every table's full contents plus the virtual clock.
func (x *exec) stateHash(step int) (uint64, *Failure) {
	h := fnv.New64a()
	var buf [8]byte
	for _, name := range x.eng.Tables() {
		io.WriteString(h, name)
		tbl, err := x.eng.OpenTable(name)
		if err != nil {
			return 0, x.fail(step, Op{Kind: OpCheck}, "catalog", "OpenTable(%q): %v", name, err)
		}
		binary.LittleEndian.PutUint32(buf[:4], tbl.ID())
		h.Write(buf[:4])
		err = tbl.Scan(0, ^uint64(0), func(k uint64, b []byte) bool {
			binary.LittleEndian.PutUint64(buf[:], k)
			h.Write(buf[:])
			h.Write(b)
			return true
		})
		if err != nil {
			return 0, x.fail(step, Op{Kind: OpCheck}, "engine-error", "hash scan of %q: %v", name, err)
		}
	}
	binary.LittleEndian.PutUint64(buf[:], uint64(x.eng.Elapsed()))
	h.Write(buf[:])
	return h.Sum64(), nil
}

func copyGhosts(g map[uint64]bool) map[uint64]bool {
	c := make(map[uint64]bool, len(g))
	for k, v := range g {
		c[k] = v
	}
	return c
}

func bytesEqual(a, b []byte) bool {
	return string(a) == string(b)
}

// sortSlotsByTableID orders slots by their engine table id — the
// cross-table commit's publication (and redo) order.
func sortSlotsByTableID(m *model, slots []int) {
	for i := 1; i < len(slots); i++ {
		for j := i; j > 0; j-- {
			a, b := m.tables[slots[j-1]], m.tables[slots[j]]
			ai, bi := uint32(0), uint32(0)
			if a != nil {
				ai = a.id
			}
			if b != nil {
				bi = b.id
			}
			if ai <= bi {
				break
			}
			slots[j-1], slots[j] = slots[j], slots[j-1]
		}
	}
}

// querySpecFor derives a deterministic predicated/projected QuerySpec
// from an OpQuery: two disjoint key sub-ranges carved out of [Key, A]
// (so pruning, below-merge filtering and range normalization all
// exercise), and — for odd B — a fixed-width projection.
func querySpecFor(op Op) masm.QuerySpec {
	begin, end := op.Key, uint64(op.A)
	spec := masm.QuerySpec{Begin: begin, End: end}
	q := (end - begin) / 4
	spec.KeyRanges = []masm.KeyRange{
		{Lo: begin, Hi: begin + q},
		{Lo: begin + 2*q + 1, Hi: begin + 3*q + 1},
	}
	if op.B&1 == 1 {
		spec.Project = &masm.Projection{
			Off:   int((op.B >> 1) % 8),
			Width: int((op.B>>4)%16) + 1,
		}
	}
	return spec
}
