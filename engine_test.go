package masm

// Tests for the multi-table catalog: table lifecycle, shared-cache
// isolation, the engine-level migration scheduler, cross-table atomic
// transactions, and multi-table crash recovery on both backends.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"masm/internal/runfile"
	"masm/internal/table"
	"masm/internal/txn"
	"masm/internal/wal"
)

// loadTable creates a table with n bulk-loaded rows (even keys 2..2n).
func loadTable(t *testing.T, e *Engine, name string, n int, opts TableOptions) *Table {
	t.Helper()
	keys := make([]uint64, n)
	bodies := make([][]byte, n)
	for i := range keys {
		keys[i] = uint64(i+1) * 2
		bodies[i] = []byte(fmt.Sprintf("%s-%06d-padding-padding-padding", name, keys[i]))
	}
	opts.Keys, opts.Bodies = keys, bodies
	tbl, err := e.CreateTable(name, opts)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func scanAll(t *testing.T, tbl *Table) map[uint64]string {
	t.Helper()
	got := make(map[uint64]string)
	if err := tbl.Scan(0, ^uint64(0), func(k uint64, b []byte) bool {
		got[k] = string(b)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestMigrateIntoEmptyTable is the shrunk repro of a silent data loss: a
// table created with no rows (every table masmd creates) had no page for
// migration to apply updates to, so its first Migrate consumed the whole
// cache and dropped it.
func TestMigrateIntoEmptyTable(t *testing.T) {
	e, err := NewEngine(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tbl, err := e.CreateTable("empty", TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := tbl.Insert(uint64(i), []byte(fmt.Sprintf("row-%06d-padding-padding-padding", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Migrate(); err != nil {
		t.Fatal(err)
	}
	if got, st := scanAll(t, tbl), tbl.Stats(); len(got) != 500 || st.Runs != 0 || st.Rows != 500 {
		t.Fatalf("after migrating into an empty table: %d rows scanned, %d in the main data, %d runs left; want 500, 500, 0",
			len(got), st.Rows, st.Runs)
	}
}

// TestMigrateThresholdResolved: both constructors give a zero
// MigrateThreshold DefaultConfig's value and refuse one outside (0, 1].
func TestMigrateThresholdResolved(t *testing.T) {
	cfg := smallCfg()
	cfg.MigrateThreshold = 0
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := e.cfg.MigrateThreshold, DefaultConfig().MigrateThreshold; got != want {
		t.Fatalf("zero threshold resolved to %v, want %v", got, want)
	}
	e.Close()
	for _, bad := range []float64{-0.1, 1.5} {
		cfg.MigrateThreshold = bad
		if _, err := NewEngine(cfg); err == nil {
			t.Fatalf("NewEngine accepted threshold %v", bad)
		}
		if _, err := OpenEngineDir(t.TempDir(), EngineDirOptions{Config: cfg}); err == nil {
			t.Fatalf("OpenEngineDir accepted threshold %v", bad)
		}
	}
}

func TestEngineCatalogLifecycle(t *testing.T) {
	e, err := NewEngine(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if got := e.Tables(); len(got) != 0 {
		t.Fatalf("fresh engine has tables %v", got)
	}
	orders := loadTable(t, e, "orders", 500, TableOptions{})
	items := loadTable(t, e, "lineitem", 300, TableOptions{CacheBytes: 1 << 20})
	if _, err := e.CreateTable("orders", TableOptions{}); !errors.Is(err, ErrTableExists) {
		t.Fatalf("duplicate create: %v", err)
	}
	if got := e.Tables(); len(got) != 2 || got[0] != "lineitem" || got[1] != "orders" {
		t.Fatalf("Tables() = %v", got)
	}
	if tt, err := e.OpenTable("orders"); err != nil || tt != orders {
		t.Fatalf("OpenTable(orders) = %v, %v", tt, err)
	}
	if _, err := e.OpenTable("nope"); !errors.Is(err, ErrNoTable) {
		t.Fatalf("OpenTable(nope): %v", err)
	}
	if orders.ID() == items.ID() {
		t.Fatal("tables share an id")
	}

	// Independent key spaces: the same key means different rows per table.
	if err := orders.Insert(7, []byte("ord-7")); err != nil {
		t.Fatal(err)
	}
	if err := items.Insert(7, []byte("item-7")); err != nil {
		t.Fatal(err)
	}
	if body, ok, _ := orders.Get(7); !ok || string(body) != "ord-7" {
		t.Fatalf("orders Get(7) = %q, %v", body, ok)
	}
	if body, ok, _ := items.Get(7); !ok || string(body) != "item-7" {
		t.Fatalf("items Get(7) = %q, %v", body, ok)
	}

	// Drop and recreate: the freed name is reusable, the id is not
	// recycled.
	oldID := items.ID()
	if err := e.DropTable("lineitem"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := items.Get(7); !errors.Is(err, ErrTableDropped) {
		t.Fatalf("use after drop: %v", err)
	}
	if err := items.Insert(9, nil); !errors.Is(err, ErrTableDropped) {
		t.Fatalf("insert after drop: %v", err)
	}
	again := loadTable(t, e, "lineitem", 10, TableOptions{})
	if again.ID() == oldID {
		t.Fatal("table id recycled after drop")
	}
	if _, ok, _ := again.Get(7); ok {
		t.Fatal("recreated table sees dropped table's update")
	}
}

func TestEngineDropTableBusy(t *testing.T) {
	e, err := NewEngine(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tbl := loadTable(t, e, "t", 100, TableOptions{})
	snap, err := tbl.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.DropTable("t"); !errors.Is(err, ErrTableBusy) {
		t.Fatalf("drop with open snapshot: %v", err)
	}
	snap.Close()
	if err := e.DropTable("t"); err != nil {
		t.Fatal(err)
	}
}

// TestEngineSharedCacheBudget exercises the byte-budget partitioning: a
// capped table hits its budget (ENOSPC-like, recoverable by migration)
// while a sibling with the same traffic keeps absorbing updates into the
// shared volume.
func TestEngineSharedCacheBudget(t *testing.T) {
	cfg := smallCfg()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// A cap small enough to exhaust quickly; the engine cache is 4 MB.
	capped := loadTable(t, e, "capped", 200, TableOptions{CacheBytes: 256 << 10})
	roomy := loadTable(t, e, "roomy", 200, TableOptions{})
	body := make([]byte, 256)
	var cappedErr error
	for i := 0; i < 20000; i++ {
		if err := capped.Insert(uint64(i)*2+1, body); err != nil {
			cappedErr = err
			break
		}
	}
	if cappedErr == nil {
		t.Fatal("capped table absorbed 20k updates without hitting its budget")
	}
	// The sibling is unaffected by the capped table's exhaustion.
	for i := 0; i < 500; i++ {
		if err := roomy.Insert(uint64(i)*2+1, body); err != nil {
			t.Fatalf("roomy table rejected update after sibling exhaustion: %v", err)
		}
	}
	// Migration clears the capped table's budget; updates flow again.
	if err := capped.Migrate(); err != nil {
		t.Fatal(err)
	}
	if err := capped.Insert(99991, body); err != nil {
		t.Fatalf("insert after migration: %v", err)
	}
	st := e.Stats()
	if st.Tables["capped"].Migrations != 1 {
		t.Fatalf("capped migrations = %d, want 1", st.Tables["capped"].Migrations)
	}
	if st.Tables["roomy"].Migrations != 0 {
		t.Fatalf("roomy migrations = %d, want 0", st.Tables["roomy"].Migrations)
	}
	if st.CachedBytes <= 0 || st.CacheFill <= 0 {
		t.Fatalf("engine stats: %+v", st)
	}
}

// TestEngineStatsBreakdown checks the per-table breakdown and the total
// cache fill.
func TestEngineStatsBreakdown(t *testing.T) {
	e, err := NewEngine(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	a := loadTable(t, e, "a", 100, TableOptions{})
	b := loadTable(t, e, "b", 100, TableOptions{})
	for i := 0; i < 50; i++ {
		if err := a.Insert(uint64(i)*2+1, []byte("aaaa")); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Insert(1, []byte("b")); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if len(st.Tables) != 2 {
		t.Fatalf("breakdown has %d tables", len(st.Tables))
	}
	if st.Tables["a"].UpdatesAccepted != 50 || st.Tables["b"].UpdatesAccepted != 1 {
		t.Fatalf("per-table updates: a=%d b=%d", st.Tables["a"].UpdatesAccepted, st.Tables["b"].UpdatesAccepted)
	}
	if st.Tables["a"].CacheFill <= st.Tables["b"].CacheFill {
		t.Fatal("busier table not fuller")
	}
	want := st.Tables["a"].CachedBytes + st.Tables["b"].CachedBytes
	if st.CachedBytes != want {
		t.Fatalf("total cached %d, want %d", st.CachedBytes, want)
	}
	if st.Tables["a"].Rows != 100 {
		t.Fatalf("rows = %d", st.Tables["a"].Rows)
	}
}

// TestEngineCrossTableTxn commits one transaction spanning two tables and
// checks atomic visibility, conflict detection, and abort.
func TestEngineCrossTableTxn(t *testing.T) {
	e, err := NewEngine(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	loadTable(t, e, "orders", 200, TableOptions{})
	loadTable(t, e, "lineitem", 200, TableOptions{})

	if _, err := e.BeginTx(TxSnapshot + 1); err == nil {
		t.Fatal("BeginTx accepted a mode other than TxSnapshot")
	}
	tx, err := e.BeginTx(TxSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("orders", 1001, []byte("o-1001")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("lineitem", 1001, []byte("l-1001")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete("lineitem", 2); err != nil {
		t.Fatal(err)
	}
	// The transaction reads its own writes.
	if body, ok, err := tx.Get("orders", 1001); err != nil || !ok || string(body) != "o-1001" {
		t.Fatalf("tx read-own-write: %q %v %v", body, ok, err)
	}
	// Nothing visible outside before commit.
	orders, _ := e.OpenTable("orders")
	items, _ := e.OpenTable("lineitem")
	if _, ok, _ := orders.Get(1001); ok {
		t.Fatal("uncommitted write visible")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if body, ok, _ := orders.Get(1001); !ok || string(body) != "o-1001" {
		t.Fatalf("orders after commit: %q %v", body, ok)
	}
	if body, ok, _ := items.Get(1001); !ok || string(body) != "l-1001" {
		t.Fatalf("lineitem after commit: %q %v", body, ok)
	}
	if _, ok, _ := items.Get(2); ok {
		t.Fatal("deleted row still visible")
	}

	// First-committer-wins across tables: a transaction that read its
	// tables before a conflicting commit must abort.
	txA, _ := e.BeginTx(TxSnapshot)
	txB, _ := e.BeginTx(TxSnapshot)
	if err := txA.Insert("orders", 5001, []byte("A")); err != nil {
		t.Fatal(err)
	}
	if err := txA.Insert("lineitem", 5002, []byte("A")); err != nil {
		t.Fatal(err)
	}
	if err := txB.Insert("lineitem", 5002, []byte("B")); err != nil {
		t.Fatal(err)
	}
	if err := txA.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := txB.Commit(); !errors.Is(err, txn.ErrWriteConflict) {
		t.Fatalf("conflicting cross-table commit: %v", err)
	}
	if body, _, _ := items.Get(5002); string(body) != "A" {
		t.Fatalf("winner's write lost: %q", body)
	}

	// Abort leaves no trace and unpins the tables (migration can run).
	txC, _ := e.BeginTx(TxSnapshot)
	if err := txC.Insert("orders", 7001, []byte("C")); err != nil {
		t.Fatal(err)
	}
	txC.Abort()
	if _, ok, _ := orders.Get(7001); ok {
		t.Fatal("aborted write visible")
	}
	if err := orders.Migrate(); err != nil {
		t.Fatalf("migration blocked after abort: %v", err)
	}
}

// TestEngineCrashRecoveryMultiTable crashes an in-memory engine with
// several tables mid-stream and checks every table's committed state
// recovers, including a cross-table transaction's atomic batch.
func TestEngineCrashRecoveryMultiTable(t *testing.T) {
	e, err := NewEngine(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	a := loadTable(t, e, "a", 300, TableOptions{})
	b := loadTable(t, e, "b", 300, TableOptions{CacheBytes: 1 << 20})
	for i := 0; i < 400; i++ {
		if err := a.Insert(uint64(i)*2+1, []byte(fmt.Sprintf("a-%d", i))); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if err := b.Modify(uint64(i%300+1)*2, 0, []byte("BB")); err != nil {
				t.Fatal(err)
			}
		}
	}
	// One cross-table transaction, then force the log so everything above
	// is durable.
	tx, err := e.BeginTx(TxSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("a", 9001, []byte("txn-a")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("b", 9001, []byte("txn-b")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	wantA := scanAll(t, a)
	wantB := scanAll(t, b)

	e2, err := e.Crash()
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if got := e2.Tables(); len(got) != 2 {
		t.Fatalf("recovered tables %v", got)
	}
	a2, err := e2.OpenTable("a")
	if err != nil {
		t.Fatal(err)
	}
	b2, err := e2.OpenTable("b")
	if err != nil {
		t.Fatal(err)
	}
	gotA := scanAll(t, a2)
	gotB := scanAll(t, b2)
	if len(gotA) != len(wantA) || len(gotB) != len(wantB) {
		t.Fatalf("recovered %d/%d rows, want %d/%d", len(gotA), len(gotB), len(wantA), len(wantB))
	}
	for k, v := range wantA {
		if gotA[k] != v {
			t.Fatalf("table a key %d: %q != %q", k, gotA[k], v)
		}
	}
	for k, v := range wantB {
		if gotB[k] != v {
			t.Fatalf("table b key %d: %q != %q", k, gotB[k], v)
		}
	}
	if body, ok, _ := a2.Get(9001); !ok || string(body) != "txn-a" {
		t.Fatalf("cross-table txn leg a lost: %q %v", body, ok)
	}
	if body, ok, _ := b2.Get(9001); !ok || string(body) != "txn-b" {
		t.Fatalf("cross-table txn leg b lost: %q %v", body, ok)
	}
	// A second crash still recovers (the rebuilt log checkpoints state).
	e3, err := e2.Crash()
	if err != nil {
		t.Fatal(err)
	}
	defer e3.Close()
	a3, _ := e3.OpenTable("a")
	if got := scanAll(t, a3); len(got) != len(wantA) {
		t.Fatalf("second crash lost rows: %d != %d", len(got), len(wantA))
	}
}

// TestEngineDirMultiTable exercises the durable catalog: create several
// tables in one directory, hard-stop, reopen, verify; then drop a table,
// reopen, and check the drop survived while the others did.
func TestEngineDirMultiTable(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenEngineDir(dir, EngineDirOptions{Config: smallCfg()})
	if err != nil {
		t.Fatal(err)
	}
	a := loadTable(t, e, "a", 200, TableOptions{})
	b := loadTable(t, e, "b", 150, TableOptions{CacheBytes: 1 << 20})
	c := loadTable(t, e, "c", 100, TableOptions{})
	for i := 0; i < 200; i++ {
		if err := a.Insert(uint64(i)*2+1, []byte(fmt.Sprintf("a-%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := b.Delete(uint64(i%150+1) * 2); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Migrate(); err != nil {
		t.Fatal(err)
	}
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	wantA, wantB, wantC := scanAll(t, a), scanAll(t, b), scanAll(t, c)
	if err := e.HardStop(); err != nil {
		t.Fatal(err)
	}

	e2, err := OpenEngineDir(dir, EngineDirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := e2.Tables(); len(got) != 3 {
		t.Fatalf("recovered tables %v", got)
	}
	for name, want := range map[string]map[uint64]string{"a": wantA, "b": wantB, "c": wantC} {
		tbl, err := e2.OpenTable(name)
		if err != nil {
			t.Fatal(err)
		}
		got := scanAll(t, tbl)
		if len(got) != len(want) {
			t.Fatalf("table %s: %d rows, want %d", name, len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("table %s key %d: %q != %q", name, k, got[k], v)
			}
		}
	}
	if err := e2.DropTable("b"); err != nil {
		t.Fatal(err)
	}
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}

	e3, err := OpenEngineDir(dir, EngineDirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer e3.Close()
	if got := e3.Tables(); len(got) != 2 {
		t.Fatalf("tables after drop+reopen: %v", got)
	}
	if _, err := e3.OpenTable("b"); !errors.Is(err, ErrNoTable) {
		t.Fatalf("dropped table reappeared: %v", err)
	}
	tbl, _ := e3.OpenTable("a")
	if got := scanAll(t, tbl); len(got) != len(wantA) {
		t.Fatalf("survivor table a lost rows: %d != %d", len(got), len(wantA))
	}
}

// v1ManifestBody is the JSON body of the retired version-1 (pre-catalog,
// one implicit table) manifest, kept so tests can show it is refused.
type v1ManifestBody struct {
	DataBytes    int64       `json:"data_bytes"`
	CacheBytes   int64       `json:"cache_bytes"`
	LogBytes     int64       `json:"log_bytes"`
	PageSize     int         `json:"page_size"`
	ScanIO       int         `json:"scan_io"`
	FillFraction float64     `json:"fill_fraction"`
	Rows         int64       `json:"rows"`
	Refs         []table.Ref `json:"refs"`
}

// buildSingleTableDir creates, updates and cleanly closes a one-table
// directory whose main.data holds exactly its table; two calls produce
// identical contents.
func buildSingleTableDir(t *testing.T, dir string) {
	t.Helper()
	rows := evenRows(400, "row-%06d-payload-payload")
	e, err := OpenEngineDir(dir, EngineDirOptions{Config: smallCfg(), DataBytes: dataBytesFor(rows.Keys, rows.Bodies)})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := e.CreateTable(testTable, rows)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := tbl.Insert(uint64(i)*2+1, []byte(fmt.Sprintf("new-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Delete(10); err != nil {
		t.Fatal(err)
	}
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestV1DirectoryRefused rewrites a directory's MANIFEST into the retired
// version-1 format: opening it must fail with the version error and leave
// every file in the directory byte-for-byte as it was.
func TestV1DirectoryRefused(t *testing.T) {
	dir := t.TempDir()
	buildSingleTableDir(t, dir)
	m, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	tm := m.Tables[0]
	writeRawManifest(t, dir, 1, v1ManifestBody{
		DataBytes: m.DataBytes, CacheBytes: m.CacheBytes, LogBytes: m.LogBytes,
		PageSize: m.PageSize, ScanIO: m.ScanIO, FillFraction: m.FillFraction,
		Rows: tm.Rows, Refs: tm.Refs,
	})
	assertOpenRefused(t, dir, "manifest version 1 unsupported")
}

// hashDirFiles returns a SHA-256 per file of a flat directory, over the
// file's size and its data extents: the files are a few hundred sparse
// megabytes, each refusal test hashes them twice, and reading the holes is
// most of the cost.
func hashDirFiles(t *testing.T, dir string) map[string][sha256.Size]byte {
	t.Helper()
	const seekData, seekHole = 3, 4 // lseek(2) whence values, Linux
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	sums := make(map[string][sha256.Size]byte, len(ents))
	for _, ent := range ents {
		f, err := os.Open(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		st, err := f.Stat()
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		fmt.Fprintf(h, "size %d\n", st.Size())
		for off := int64(0); off < st.Size(); {
			data, err := f.Seek(off, seekData)
			if err != nil {
				break // ENXIO: a hole to the end of the file
			}
			hole, err := f.Seek(data, seekHole)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "extent %d\n", data)
			if _, err := io.Copy(h, io.NewSectionReader(f, data, hole-data)); err != nil {
				t.Fatal(err)
			}
			off = hole
		}
		f.Close()
		var sum [sha256.Size]byte
		h.Sum(sum[:0])
		sums[ent.Name()] = sum
	}
	return sums
}

// assertOpenRefused opens dir, wants the open to fail with an error
// containing each of wants, and wants the directory's files — names and
// bytes — exactly as they were.
func assertOpenRefused(t *testing.T, dir string, wants ...string) {
	t.Helper()
	before := hashDirFiles(t, dir)
	_, err := OpenEngineDir(dir, EngineDirOptions{})
	if err == nil {
		t.Fatalf("open succeeded, want an error naming %q", wants)
	}
	for _, want := range wants {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("open: %v, want an error naming %q", err, want)
		}
	}
	after := hashDirFiles(t, dir)
	if len(after) != len(before) {
		t.Fatalf("refused open changed the file set: %d files -> %d", len(before), len(after))
	}
	for name, sum := range before {
		if after[name] != sum {
			t.Fatalf("refused open modified %s", name)
		}
	}
}

// TestOlderWALRefused patches a directory's wal.log header to the format
// versions earlier builds wrote: the open must fail naming the version
// found and the one supported, before recovery leaves anything behind — no
// wal.log.new, every file byte-for-byte as it was.
func TestOlderWALRefused(t *testing.T) {
	for _, version := range []uint32{2, 3, 4} {
		dir := t.TempDir()
		buildSingleTableDir(t, dir)
		patchFileHead(t, filepath.Join(dir, walFileName), 16, func(raw []byte) {
			patchWALHeaderVersion(raw, version)
		})
		assertOpenRefused(t, dir,
			fmt.Sprintf("log format version %d unsupported", version),
			fmt.Sprintf("this build reads %d", wal.FormatVersion))
	}
}

// TestFormat1RunRefused rewrites the flush record of a directory's one run
// to name run format 1 (frame checksum fixed up): the open must fail naming
// both run format versions and leave the directory as it was.
func TestFormat1RunRefused(t *testing.T) {
	dir := t.TempDir()
	tbl := openTable(t, dir, smallCfg(), TableOptions{Keys: []uint64{2, 4}, Bodies: [][]byte{[]byte("a"), []byte("b")}})
	if err := tbl.Insert(3, []byte("cached")); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tbl.eng.Close(); err != nil {
		t.Fatal(err)
	}
	// Frames follow the 16-byte header: [kind u8][len u32][crc u32][payload],
	// crc over kind, len and payload. A flush payload is the table id, then
	// the run descriptor with its format at byte 33.
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	patched := false
	patchFileHead(t, filepath.Join(dir, walFileName), 64<<10, func(raw []byte) {
		for off := 16; off+9 <= len(raw) && raw[off] != 0; {
			plen := int(binary.LittleEndian.Uint32(raw[off+1:]))
			payload := raw[off+9 : off+9+plen]
			if wal.Kind(raw[off]) == wal.KindFlush {
				binary.LittleEndian.PutUint16(payload[4+33:], 1)
				crc := crc32.Update(crc32.Checksum(raw[off:off+5], castagnoli), castagnoli, payload)
				binary.LittleEndian.PutUint32(raw[off+5:], crc)
				patched = true
			}
			off += 9 + plen
		}
	})
	if !patched {
		t.Fatal("no flush record in the closed directory's log")
	}
	assertOpenRefused(t, dir, "run format version 1 unsupported",
		fmt.Sprintf("this build reads %d", runfile.FormatVersion))
}

// TestReopenGrowsDataBytes: a directory reopened with a larger DataBytes
// is a catalog new tables can join (buildSingleTableDir sizes main.data
// exactly for its one table).
func TestReopenGrowsDataBytes(t *testing.T) {
	dir := t.TempDir()
	buildSingleTableDir(t, dir)
	tbl := openTable(t, dir, Config{}, TableOptions{})
	want := len(scanAll(t, tbl))
	if err := tbl.eng.Close(); err != nil {
		t.Fatal(err)
	}
	m, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	e, err := OpenEngineDir(dir, EngineDirOptions{DataBytes: m.DataBytes + (128 << 20)})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	extra, err := e.CreateTable("extra", TableOptions{CacheBytes: 1 << 20,
		Keys: []uint64{2, 4}, Bodies: [][]byte{[]byte("x"), []byte("y")}})
	if err != nil {
		t.Fatalf("CreateTable on grown dir: %v", err)
	}
	if body, ok, _ := extra.Get(4); !ok || string(body) != "y" {
		t.Fatalf("new table on grown dir: %q %v", body, ok)
	}
	// The original table still reads through the grown layout.
	def, err := e.OpenTable(testTable)
	if err != nil {
		t.Fatal(err)
	}
	if got := scanAll(t, def); len(got) != want {
		t.Fatalf("original table after growth: %d rows, want %d", len(got), want)
	}
}

// writeRawManifest writes a manifest file with an arbitrary version and
// JSON body, bypassing the engine's writer.
func writeRawManifest(t *testing.T, dir string, version uint32, body any) {
	t.Helper()
	js, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 16+len(js))
	buf = append(buf, manifestMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, version)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(js, manifestCRCTable))
	buf = append(buf, js...)
	if err := os.WriteFile(filepath.Join(dir, manifestName), buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// patchFileHead applies edit to the first n bytes of a file, in place (the
// files are sparse: a whole-file rewrite would fill their holes).
func patchFileHead(t *testing.T, path string, n int, edit func(raw []byte)) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	raw := make([]byte, n)
	if _, err := io.ReadFull(f, raw); err != nil {
		t.Fatal(err)
	}
	edit(raw)
	if _, err := f.WriteAt(raw, 0); err != nil {
		t.Fatal(err)
	}
}

// patchWALHeaderVersion rewrites the version field of a WAL header image
// in place and fixes the header checksum.
func patchWALHeaderVersion(raw []byte, version uint32) {
	binary.LittleEndian.PutUint32(raw[8:], version)
	crc := crc32.Checksum(raw[:12], crc32.MakeTable(crc32.Castagnoli))
	binary.LittleEndian.PutUint32(raw[12:], crc)
}

// TestOpenDirOnEmptyCatalog pins the recovery of a directory whose
// manifest exists but holds no tables (a crash or failed bulk load
// between catalog creation and the first CreateTable): it must reopen as
// an empty catalog that accepts the table, instead of refusing forever.
func TestOpenDirOnEmptyCatalog(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenEngineDir(dir, EngineDirOptions{Config: smallCfg()})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e, err = OpenEngineDir(dir, EngineDirOptions{Config: smallCfg()})
	if err != nil {
		t.Fatalf("reopen of an empty catalog: %v", err)
	}
	if names := e.Tables(); len(names) != 0 {
		t.Fatalf("empty catalog reopened with tables %v", names)
	}
	tbl, err := e.CreateTable(testTable, TableOptions{Keys: []uint64{2, 4}, Bodies: [][]byte{[]byte("a"), []byte("b")}})
	if err != nil {
		t.Fatalf("CreateTable on a reopened empty catalog: %v", err)
	}
	if body, ok, _ := tbl.Get(4); !ok || string(body) != "b" {
		t.Fatalf("Get(4) = %q, %v", body, ok)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCreateTableFailureReleasesHeapRegion pins the allocData rollback: a
// CreateTable that fails after carving its heap region must hand the
// region back, or failed attempts permanently consume main.data.
func TestCreateTableFailureReleasesHeapRegion(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenEngineDir(dir, EngineDirOptions{Config: smallCfg(), DataBytes: 80 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	bad := TableOptions{Keys: []uint64{4, 2}, Bodies: [][]byte{[]byte("x"), []byte("y")}} // not increasing
	for i := 0; i < 3; i++ {
		if _, err := e.CreateTable("t", bad); err == nil {
			t.Fatal("non-increasing bulk load accepted")
		}
	}
	// One table region is ~64 MB (dataBytesFor's floor); with an 80 MB
	// file, any leak across the three failures would make this final
	// create fail with "main.data full".
	if _, err := e.CreateTable("t", TableOptions{Keys: []uint64{2}, Bodies: [][]byte{[]byte("x")}}); err != nil {
		t.Fatalf("create after failed attempts: %v", err)
	}
}
