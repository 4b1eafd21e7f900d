package masm

// Durable, file-backed engines. NewEngine keeps everything in memory on
// the simulated devices; OpenEngineDir lays the same catalog out over real
// OS files in a directory, so committed state survives a process exit
// (clean or not) and is fully recovered by the next OpenEngineDir on the
// same directory. The virtual-time cost model still runs — the file
// backend changes where the bytes live, not how their I/O is priced — so
// the same workloads produce the same simulated timings on either backend.
//
// Directory layout:
//
//	main.data   every table's clustered heap, one contiguous region per
//	            table (fixed-size pages)
//	cache.runs  the shared SSD update cache: WAL-described materialized
//	            runs from all tables, partitioned by the byte-budget
//	            allocator
//	wal.log     the shared redo log (format 5: CRC-framed, torn-tail
//	            tolerant, one record kind per job, every per-table
//	            record opening with the owning table's id)
//	MANIFEST    checksummed catalog: per-table geometry and page
//	            references, written atomically (tmp + rename) at creation,
//	            at CreateTable/DropTable, and at every migration
//	            checkpoint (manifest.go)
//
// Each file has one format. A directory written by an earlier build — a
// version-1 MANIFEST, a wal.log whose header names format 2, 3 or 4, or a
// log naming a format-1 run — is refused with an error naming the version
// found and the version supported, and is left byte-for-byte as it was.
//
// Durability contract: an update survives a crash once Sync (or a
// transaction Commit followed by Sync, or enough later traffic to force
// its group-commit batch) has returned. The write-ahead ordering is
// enforced by wal.Hooks: run data is fsynced before its flush/merge
// record, and the table pages plus MANIFEST are checkpointed before a
// migration's closing record.
//
// This file opens and creates directories; recovery.go reopens one.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"syscall"

	"masm/internal/obs"
	"masm/internal/sim"
	"masm/internal/storage"
	"masm/internal/storage/filedev"
	"masm/internal/table"
	"masm/internal/wal"
)

// EngineDirOptions configures OpenEngineDir.
type EngineDirOptions struct {
	// Config is the engine configuration; CacheBytes is the total shared
	// SSD cache. On reopen the directory's own cache geometry wins.
	Config
	// DataBytes is the total main.data capacity shared by every table's
	// heap region (the file is sparse, so unused capacity costs nothing).
	// Zero selects a default. On reopen the effective capacity is the
	// larger of this and the directory's, so a catalog can be grown.
	DataBytes int64
	// WrapBackend, when non-nil, wraps each storage file's backend as it is
	// opened, before the engine issues any I/O through it. name is the
	// file's name within the directory ("main.data", "cache.runs",
	// "wal.log", or — during recovery, for the checkpoint log that
	// atomically replaces wal.log — "wal.log.new"). It is the
	// fault-injection and instrumentation seam the deterministic chaos
	// harness (internal/chaos) uses to count writes and fsyncs, tear
	// writes, and cut power at chosen sync points; production opens leave
	// it nil.
	WrapBackend func(name string, be storage.Backend) storage.Backend
	// MetricsAddr, when non-empty, serves the engine's observability plane
	// over HTTP on that address ("127.0.0.1:0" picks a free port):
	// /metrics (Prometheus text), /debug/vars (expvar) and /debug/pprof.
	// The endpoint is strictly opt-in and read-only; it shares the metric
	// registry's atomic snapshots and never touches engine locks or the
	// simulated timeline. The listener closes with the engine.
	MetricsAddr string
}

// defaultEngineDataBytes sizes main.data when EngineDirOptions.DataBytes
// is zero.
const defaultEngineDataBytes = 256 << 20

// File names inside a database directory.
const (
	dataFileName    = "main.data"
	cacheFileName   = "cache.runs"
	walFileName     = "wal.log"
	walTmpFileName  = "wal.log.new"
	manifestName    = "MANIFEST"
	manifestTmpName = "MANIFEST.tmp"
	lockFileName    = "LOCK"
)

// logFileBytes is the redo-log capacity. The log is rewritten from its
// checkpoint at every reopen, and migrations truncate the live state it
// must describe, so a fixed generous region suffices for the prototype.
const logFileBytes = 256 << 20

// dirState is the durable side of a file-backed engine: the open files,
// the directory identity, and the manifest writer.
type dirState struct {
	dir  string
	opts EngineDirOptions

	// The directory's storage backends: filedev files, wrapped by
	// opts.WrapBackend when a test harness injects faults or counters.
	data  storage.Backend
	cache storage.Backend
	wal   storage.Backend
	// lock holds the advisory flock that gives this process exclusive
	// ownership of the directory; the kernel releases it when the
	// descriptor closes, so even a hard stop or process death frees it.
	lock *os.File

	// dataRoot is the whole main.data file as a volume; tables carve
	// their heap regions out of it with Slice.
	dataRoot *storage.Volume

	// manifestMu serializes manifest state and rewrites (a migration
	// checkpoint can race CreateTable on another table). It also guards
	// catalog — the dirState's own id-ordered table list. The WAL
	// migration-close checkpoint hook runs while the log's mutex is held
	// and must NOT take the engine's catalog lock (writers hold e.mu
	// while waiting on the log mutex, and a queued e.mu writer would
	// turn that into a three-way deadlock), so the manifest writer reads
	// this list instead of the engine's maps.
	manifestMu sync.Mutex
	m          manifest
	catalog    []*Table

	// Manifest-commit instrumentation (nil-safe obs handles; wall-clock
	// nanos — the manifest write is real file I/O outside the simulated
	// timeline). Set right after the engine's registry exists.
	manifestWrites *obs.Counter
	manifestNanos  *obs.Histogram
}

// allocData carves the next table's heap region out of main.data.
func (ds *dirState) allocData(need int64) (*storage.Volume, int64, error) {
	ds.manifestMu.Lock()
	defer ds.manifestMu.Unlock()
	if need > ds.m.DataBytes-ds.m.DataNext {
		return nil, 0, fmt.Errorf("masm: %s: main.data full: %d bytes free, %d needed (recreate or reopen with a larger DataBytes)",
			ds.dir, ds.m.DataBytes-ds.m.DataNext, need)
	}
	off := ds.m.DataNext
	vol, err := ds.dataRoot.Slice(off, need)
	if err != nil {
		return nil, 0, err
	}
	ds.m.DataNext += need
	return vol, off, nil
}

// releaseData rolls back the most recent allocData when table creation
// fails after it, so a failed CreateTable does not permanently consume a
// region of the fixed-capacity data file. Only the topmost region can be
// returned (bump allocator); anything else is a no-op.
func (ds *dirState) releaseData(off, need int64) {
	ds.manifestMu.Lock()
	defer ds.manifestMu.Unlock()
	if ds.m.DataNext == off+need {
		ds.m.DataNext = off
	}
}

// hooks wires the write-ahead ordering between the redo log and the data
// files (see wal.Hooks). The checkpoint covers the whole catalog: all
// tables share main.data and the manifest. It reads the dirState's own
// catalog copy, not the engine's maps — it runs with the log mutex held,
// and taking the engine lock there would deadlock against writers (see
// the catalog field comment).
func (ds *dirState) hooks() wal.Hooks {
	return wal.Hooks{
		SyncRuns: ds.cache.Sync,
		Checkpoint: func() error {
			if err := ds.data.Sync(); err != nil {
				return err
			}
			return ds.checkpointManifest()
		},
	}
}

// openBackend opens (creating if absent) one of the directory's files as a
// storage backend of the given capacity, applying the WrapBackend seam.
func (ds *dirState) openBackend(name string, size int64) (storage.Backend, error) {
	f, err := filedev.Open(filepath.Join(ds.dir, name), size)
	if err != nil {
		return nil, err
	}
	if ds.opts.WrapBackend != nil {
		return ds.opts.WrapBackend(name, f), nil
	}
	return f, nil
}

// closeFiles closes the directory's files, optionally syncing data and
// cache first (the WAL is synced by the caller through the log), and
// finally drops the directory lock. A crash test passes sync=false to
// model kill -9.
func (ds *dirState) closeFiles(sync bool) error {
	var firstErr error
	for _, f := range []storage.Backend{ds.data, ds.cache, ds.wal} {
		if f == nil {
			continue
		}
		if sync {
			if err := f.Sync(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if err := f.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if ds.lock != nil {
		if err := ds.lock.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		ds.lock = nil
	}
	return firstErr
}

// lockDir takes an exclusive advisory lock on the directory's LOCK file,
// so two processes (or two engines in one process) can never write the
// same database: the second open fails immediately instead of
// interleaving WAL batches with the first. flock releases with the
// descriptor, so a crashed owner never leaves a stale lock behind.
func lockDir(dir string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, lockFileName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("masm: %s: database locked by another process: %w", dir, err)
	}
	return f, nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// OpenEngineDir opens (creating if necessary) a durable, file-backed
// catalog engine in dir. A new directory is laid out empty — main.data +
// cache.runs + wal.log + MANIFEST — and tables are added with CreateTable;
// an existing one is recovered table by table: the manifest restores the
// catalog and each table's heap, the runs named by the shared redo log are
// rebuilt (checksum-verified) from cache.runs and routed to their owning
// tables, logged updates not covered by a flush repopulate each table's
// in-memory buffer, and interrupted migrations are redone idempotently.
// Everything committed — synced through Sync or a forced group-commit
// batch — is visible after reopen, even if the previous process was killed
// mid-write and left a torn redo-log tail.
func OpenEngineDir(dir string, opts EngineDirOptions) (*Engine, error) {
	return openEngineDir(dir, opts, defaultRebuildWorkers)
}

// openEngineDir is OpenEngineDir with recovery's rebuild concurrency
// explicit (see recoverTables; only the differential tests pass 0).
func openEngineDir(dir string, opts EngineDirOptions, rebuildWorkers int) (*Engine, error) {
	if opts.Config == (Config{}) {
		opts.Config = DefaultConfig()
	}
	if err := resolveThreshold(&opts.Config); err != nil {
		return nil, err
	}
	if opts.DisableRedoLog {
		return nil, errors.New("masm: OpenEngineDir: the file backend requires the redo log (it is the recovery mechanism)")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	// A leftover temp log from a recovery that died mid-way is garbage:
	// the real wal.log is still authoritative.
	os.Remove(filepath.Join(dir, walTmpFileName))
	os.Remove(filepath.Join(dir, manifestTmpName))
	var e *Engine
	if _, statErr := os.Stat(filepath.Join(dir, manifestName)); statErr != nil {
		if !errors.Is(statErr, os.ErrNotExist) {
			lock.Close()
			return nil, statErr
		}
		e, err = createEngineDir(dir, opts, lock)
	} else {
		e, err = reopenEngineDir(dir, opts, lock, rebuildWorkers)
	}
	if err != nil {
		lock.Close() // harmless if a dirState defer already closed it
		return nil, err
	}
	if opts.MetricsAddr != "" {
		srv, serr := obs.Serve(opts.MetricsAddr, e.reg)
		if serr != nil {
			e.Close()
			return nil, fmt.Errorf("masm: metrics endpoint: %w", serr)
		}
		e.msrv = srv
	}
	return e, nil
}

// deviceFor builds a simulated device big enough for the volumes laid out
// on it, keeping the paper's performance envelope.
func deviceFor(p sim.DeviceParams, need int64) *sim.Device {
	if p.Capacity < need {
		p.Capacity = need
	}
	return sim.NewDevice(p)
}

// newDirEngine builds the engine shell over an opened directory: the
// simulated devices sized for ds.m's geometry (with room for logs redo-log
// regions after main.data on the disk), the registry, and the main.data
// and cache.runs volumes. The caller lays out the log.
func newDirEngine(ds *dirState, logs int64) (*Engine, error) {
	m := &ds.m
	hdd := deviceFor(sim.Barracuda7200(), m.DataBytes+logs*m.LogBytes)
	ssd := deviceFor(sim.IntelX25E(), m.CacheBytes*2)
	dataRoot, err := storage.NewVolumeOn(hdd, 0, ds.data)
	if err != nil {
		return nil, err
	}
	ssdVol, err := storage.NewVolumeOn(ssd, 0, ds.cache)
	if err != nil {
		return nil, err
	}
	ds.dataRoot = dataRoot
	e := newEngine(ds.opts.Config, hdd, ssd, ssdVol)
	e.nextID = m.NextTableID
	e.fs = ds
	ds.manifestWrites = e.reg.Counter("masm_manifest_writes")
	ds.manifestNanos = e.reg.Histogram("masm_manifest_commit_nanos")
	return e, nil
}

// createEngineDir lays out a fresh, empty catalog directory.
func createEngineDir(dir string, opts EngineDirOptions, lock *os.File) (e *Engine, err error) {
	if opts.CacheBytes <= 0 {
		return nil, fmt.Errorf("masm: non-positive cache size %d", opts.CacheBytes)
	}
	if opts.DataBytes <= 0 {
		opts.DataBytes = defaultEngineDataBytes
	}
	m := manifest{
		DataBytes:    opts.DataBytes,
		CacheBytes:   opts.CacheBytes,
		LogBytes:     logFileBytes,
		PageSize:     table.DefaultConfig().PageSize,
		ScanIO:       table.DefaultConfig().ScanIO,
		FillFraction: table.DefaultConfig().FillFraction,
	}
	ds := &dirState{dir: dir, opts: opts, m: m, lock: lock}
	defer func() {
		if err != nil {
			ds.closeFiles(false)
		}
	}()
	if ds.data, err = ds.openBackend(dataFileName, m.DataBytes); err != nil {
		return nil, err
	}
	if ds.cache, err = ds.openBackend(cacheFileName, m.CacheBytes*2); err != nil {
		return nil, err
	}
	if ds.wal, err = ds.openBackend(walFileName, m.LogBytes); err != nil {
		return nil, err
	}
	if e, err = newDirEngine(ds, 1); err != nil {
		return nil, err
	}
	if e.logVol, err = storage.NewVolumeOn(e.hdd, m.DataBytes, ds.wal); err != nil {
		return nil, err
	}
	if err = ds.checkpointManifest(); err != nil {
		return nil, err
	}
	e.openLog()
	// Force the header down now, before any records: from here on, a
	// header that fails validation on reopen is corruption, never a torn
	// first write.
	if _, err = e.log.Bootstrap(0); err != nil {
		return nil, err
	}
	return e, nil
}
