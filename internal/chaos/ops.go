package chaos

import (
	"fmt"
	"math/rand"
	"strings"
)

// OpKind enumerates the scenario vocabulary. Each op is one step of the
// deterministic cooperative scheduler: one logical actor (a writer, a
// scanner, a held snapshot, an open transaction, the migrator, the crash
// fairy) advances by one move. Ops are self-contained and tolerant — an
// op naming an empty table slot or a closed snapshot slot is a no-op — so
// ANY subsequence of a trace is executable, which is what makes
// delta-debugging shrinks sound.
type OpKind uint8

const (
	opInvalid OpKind = iota
	// Point updates on table slot Slot. Key is the record key; A seeds the
	// body (Insert) or the patch value and offset (Modify).
	OpInsert
	OpDelete
	OpModify
	// Reads. OpGet checks one key against the model; OpScan checks the key
	// range [Key, uint64(A)] (A ≥ Key).
	OpGet
	OpScan
	// OpSync forces the redo log: the explicit durability point. Everything
	// acked before a successful OpSync must survive any later crash.
	OpSync
	// Maintenance on slot Slot. OpMigrateStep migrates Aux pages.
	OpFlush
	OpMigrate
	OpMigrateStep
	// OpMigratePressured runs one round of the engine's cross-table
	// cache-pressure arbitration (the synchronous form of the background
	// scheduler — the scheduler goroutine itself uses wall-clock tickers
	// and is banned from deterministic runs).
	OpMigratePressured
	// Snapshot actors: slot Aux holds at most one open snapshot of table
	// Slot. OpSnapScan re-reads it in full and must see exactly the state
	// captured at open (snapshot repeatability).
	OpSnapOpen
	OpSnapScan
	OpSnapClose
	// Transaction actors: slot Aux holds at most one open EngineTx. Tx ops
	// write/read table Slot inside it; commit publishes atomically across
	// every touched table.
	OpTxBegin
	OpTxInsert
	OpTxDelete
	OpTxGet
	OpTxCommit
	OpTxAbort
	// Catalog changes. OpCreateTable bulk-loads a fresh table into an empty
	// slot; OpDropTable drops the slot's table (tolerating ErrTableBusy
	// while it has open readers).
	OpCreateTable
	OpDropTable
	// OpReopen is the clean restart: close (full shutdown sync), reopen,
	// verify every table matches the model exactly.
	OpReopen
	// OpCrash cuts power on every backend now (un-synced writes survive per
	// the A% lottery), hard-stops, reopens, and runs the committed-prefix
	// durability check.
	OpCrash
	// OpCrashAtSync arms a power cut at the Aux backend's (current+A)-th
	// fsync, so the crash lands INSIDE a later engine operation — mid
	// flush, mid migration checkpoint, mid group commit. B is the survivor
	// percentage.
	OpCrashAtSync
	// OpCheck runs the invariant probes (engine + manifest) and a full
	// scan-vs-model comparison of every live table.
	OpCheck
	// OpQuery runs a predicated, projected streaming query over
	// [Key, uint64(A)] through the pushdown executor (zone-map pruning,
	// below-merge filtering) and checks it against the model
	// filtered and projected the same way. B deterministically selects the
	// predicate sub-ranges and the optional projection.
	OpQuery
)

var opNames = map[OpKind]string{
	OpInsert: "Insert", OpDelete: "Delete", OpModify: "Modify",
	OpGet: "Get", OpScan: "Scan", OpSync: "Sync",
	OpFlush: "Flush", OpMigrate: "Migrate", OpMigrateStep: "MigrateStep",
	OpMigratePressured: "MigratePressured",
	OpSnapOpen:         "SnapOpen", OpSnapScan: "SnapScan", OpSnapClose: "SnapClose",
	OpTxBegin: "TxBegin", OpTxInsert: "TxInsert", OpTxDelete: "TxDelete",
	OpTxGet: "TxGet", OpTxCommit: "TxCommit", OpTxAbort: "TxAbort",
	OpCreateTable: "CreateTable", OpDropTable: "DropTable",
	OpReopen: "Reopen", OpCrash: "Crash", OpCrashAtSync: "CrashAtSync",
	OpCheck: "Check", OpQuery: "Query",
}

// Op is one generated scenario step. The fields are generic so a trace
// prints as a compact Go literal (see FormatRepro): Slot is the table
// slot, Aux a snapshot/tx slot, backend index or page count, Key the
// record key, and A/B op-specific integers (body seed, range end,
// survivor percentage, sync delta).
type Op struct {
	Kind OpKind
	Slot int
	Aux  int
	Key  uint64
	A    int64
	B    int64
}

func (o Op) String() string {
	return fmt.Sprintf("%s{Slot:%d Aux:%d Key:%d A:%d B:%d}", opNames[o.Kind], o.Slot, o.Aux, o.Key, o.A, o.B)
}

// Backend indexes for OpCrashAtSync.Aux.
const (
	backendWAL = iota
	backendCache
	backendData
	backendCount
)

// GenTrace deterministically generates a steps-long scenario from seed
// under the given options. The same (seed, steps, options) always yields
// the same trace; executing it is deterministic too, so (seed, step) is a
// complete failure coordinate.
func GenTrace(seed int64, steps int, o Options) []Op {
	o = o.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	key := func() uint64 { return uint64(rng.Intn(int(o.KeySpace))) + 1 }
	type choice struct {
		w    int
		kind OpKind
	}
	weighted := []choice{
		{280, OpInsert}, {70, OpDelete}, {90, OpModify},
		{60, OpGet}, {80, OpScan}, {40, OpQuery}, {120, OpSync},
		{20, OpFlush}, {10, OpMigrate}, {20, OpMigrateStep}, {20, OpMigratePressured},
		{30, OpSnapOpen}, {40, OpSnapScan}, {30, OpSnapClose},
		{30, OpTxBegin}, {40, OpTxInsert}, {20, OpTxDelete}, {20, OpTxGet},
		{30, OpTxCommit}, {10, OpTxAbort},
		{10, OpCreateTable}, {10, OpDropTable},
		{4, OpReopen}, {5, OpCrash}, {4, OpCrashAtSync},
		{60, OpCheck},
	}
	var total int
	for _, c := range weighted {
		total += c.w
	}
	ops := make([]Op, 0, steps)
	for len(ops) < steps {
		n := rng.Intn(total)
		var kind OpKind
		for _, c := range weighted {
			if n < c.w {
				kind = c.kind
				break
			}
			n -= c.w
		}
		op := Op{Kind: kind, Slot: rng.Intn(o.Tables)}
		switch kind {
		case OpInsert:
			op.Key, op.A = key(), rng.Int63()
		case OpDelete, OpGet:
			op.Key = key()
		case OpModify:
			op.Key, op.A = key(), rng.Int63()
		case OpScan:
			a, b := key(), key()
			if a > b {
				a, b = b, a
			}
			op.Key, op.A = a, int64(b)
		case OpQuery:
			a, b := key(), key()
			if a > b {
				a, b = b, a
			}
			op.Key, op.A, op.B = a, int64(b), rng.Int63()
		case OpMigrateStep:
			op.Aux = 1 + rng.Intn(8) // pages per step
		case OpSnapOpen, OpSnapScan, OpSnapClose:
			op.Aux = rng.Intn(o.snapSlots())
		case OpTxBegin, OpTxCommit, OpTxAbort:
			op.Aux = rng.Intn(o.txSlots())
		case OpTxInsert, OpTxDelete, OpTxGet:
			op.Aux = rng.Intn(o.txSlots())
			op.Key = key()
			op.A = rng.Int63()
		case OpCrash:
			op.A = int64([]int{0, 0, 50, 90}[rng.Intn(4)]) // survivor %
		case OpCrashAtSync:
			op.Aux = rng.Intn(backendCount)
			op.A = int64(1 + rng.Intn(6)) // fsyncs from now
			op.B = int64([]int{0, 50}[rng.Intn(2)])
		}
		ops = append(ops, op)
	}
	return ops
}

// FormatRepro renders a failing trace as a runnable Go test: paste it
// into a _test.go file in internal/chaos (or adapt the package path) and
// run it to replay the exact scenario without the generator.
func FormatRepro(name string, opts Options, ops []Op) string {
	opts = opts.withDefaults()
	var b strings.Builder
	fmt.Fprintf(&b, "// Auto-generated chaos repro: seed=%d steps=%d (shrunk to %d ops).\n", opts.Seed, opts.Steps, len(ops))
	fmt.Fprintf(&b, "func Test%s(t *testing.T) {\n", name)
	fmt.Fprintf(&b, "\topts := chaos.Options{Seed: %d, Steps: %d, Tables: %d, KeySpace: %d, CacheBytes: %d, BodyLen: %d, BulkRows: %d",
		opts.Seed, opts.Steps, opts.Tables, opts.KeySpace, opts.CacheBytes, opts.BodyLen, opts.BulkRows)
	if opts.PlantWALSyncDrop != 0 {
		fmt.Fprintf(&b, ", PlantWALSyncDrop: %d", opts.PlantWALSyncDrop)
	}
	b.WriteString("}\n")
	b.WriteString("\tres, err := chaos.Execute(opts, []chaos.Op{\n")
	for _, op := range ops {
		fmt.Fprintf(&b, "\t\t{Kind: chaos.Op%s", opNames[op.Kind])
		if op.Slot != 0 {
			fmt.Fprintf(&b, ", Slot: %d", op.Slot)
		}
		if op.Aux != 0 {
			fmt.Fprintf(&b, ", Aux: %d", op.Aux)
		}
		if op.Key != 0 {
			fmt.Fprintf(&b, ", Key: %d", op.Key)
		}
		if op.A != 0 {
			fmt.Fprintf(&b, ", A: %d", op.A)
		}
		if op.B != 0 {
			fmt.Fprintf(&b, ", B: %d", op.B)
		}
		b.WriteString("},\n")
	}
	b.WriteString("\t})\n")
	b.WriteString("\tif err != nil {\n\t\tt.Fatal(err)\n\t}\n")
	b.WriteString("\tif res.Failure != nil {\n\t\tt.Fatal(res.Failure)\n\t}\n")
	b.WriteString("}\n")
	return b.String()
}
