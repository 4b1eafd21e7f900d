package masm

// MANIFEST: the checksummed catalog of a file-backed engine — per-table
// geometry and page references, written atomically (tmp + rename) at
// creation, at CreateTable/DropTable, and at every migration checkpoint.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"time"

	"masm/internal/table"
)

// manifestMagic identifies a MaSM database directory manifest.
var manifestMagic = [8]byte{'M', 'a', 'S', 'M', 'd', 'i', 'r', '\x00'}

// manifestVersion is the one manifest format this build writes and reads.
const manifestVersion = 2

var manifestCRCTable = crc32.MakeTable(crc32.Castagnoli)

// tableManifest is one table's durable catalog entry.
type tableManifest struct {
	Name string `json:"name"`
	ID   uint32 `json:"id"`
	// DataOff/DataBytes locate the table's heap region in main.data.
	DataOff   int64 `json:"data_off"`
	DataBytes int64 `json:"data_bytes"`
	// CacheBytes is the table's logical SSD update-cache cap.
	CacheBytes int64       `json:"cache_bytes"`
	Rows       int64       `json:"rows"`
	Refs       []table.Ref `json:"refs"`
	// MigTS is the shadow-commit record: the newest migration timestamp
	// that may be stamped on pages reachable through Refs. A manifest
	// rewrite commits a table's flipped refs and this stamp in one
	// tmp+rename, so recovery resumes the oracle above every stamp the
	// committed page set can carry even when the WAL was lost with the
	// crash. Zero on manifests from before shadow paging.
	MigTS int64 `json:"mig_ts,omitempty"`
}

// manifest is the durable directory metadata: the file geometry, the
// catalog, and each table's page references — the only engine state that
// is neither rederivable from the redo log nor stored in the data files
// themselves.
type manifest struct {
	DataBytes    int64   `json:"data_bytes"` // total main.data capacity
	CacheBytes   int64   `json:"cache_bytes"`
	LogBytes     int64   `json:"log_bytes"`
	PageSize     int     `json:"page_size"`
	ScanIO       int     `json:"scan_io"`
	FillFraction float64 `json:"fill_fraction"`
	// DataNext is the bump cursor for the next table's heap region.
	DataNext    int64           `json:"data_next"`
	NextTableID uint32          `json:"next_table_id"`
	Tables      []tableManifest `json:"tables"`
}

func (m *manifest) tableConfig() table.Config {
	return table.Config{PageSize: m.PageSize, ScanIO: m.ScanIO, FillFraction: m.FillFraction}
}

// tableConfig reads the directory's page geometry under the manifest
// latch (the geometry itself never changes after open, but ds.m as a
// whole is mutated under manifestMu).
func (ds *dirState) tableConfig() table.Config {
	ds.manifestMu.Lock()
	defer ds.manifestMu.Unlock()
	return ds.m.tableConfig()
}

// catalogEntry renders one table's durable manifest entry. Rows and Refs
// come from the heap table, which is internally consistent without any
// engine lock.
func catalogEntry(t *Table) tableManifest {
	return tableManifest{
		Name:       t.name,
		ID:         t.id,
		DataOff:    t.dataOff,
		DataBytes:  t.dataBytes,
		CacheBytes: t.cacheBudget,
		Rows:       t.tbl.Rows(),
		Refs:       t.tbl.Refs(),
		MigTS:      t.tbl.LastMigTS(),
	}
}

// addTable registers a new table in the durable catalog and rewrites the
// manifest. nextID is the engine's next-table-id watermark, persisted so
// table ids are never reused across a drop: a recycled id would route a
// dropped table's surviving WAL records into the new table.
func (ds *dirState) addTable(t *Table, nextID uint32) error {
	ds.manifestMu.Lock()
	defer ds.manifestMu.Unlock()
	ds.catalog = append(ds.catalog, t)
	sort.Slice(ds.catalog, func(i, j int) bool { return ds.catalog[i].id < ds.catalog[j].id })
	if err := ds.writeManifestLocked(nextID); err != nil {
		// Roll the registration back so the durable catalog and the
		// in-memory one stay in step.
		for i, c := range ds.catalog {
			if c == t {
				ds.catalog = append(ds.catalog[:i], ds.catalog[i+1:]...)
				break
			}
		}
		return err
	}
	return nil
}

// removeTable drops a table from the durable catalog; the manifest
// rewrite is the drop's commit point (recovery ignores WAL records of
// tables absent from the manifest).
func (ds *dirState) removeTable(t *Table) error {
	ds.manifestMu.Lock()
	defer ds.manifestMu.Unlock()
	for i, c := range ds.catalog {
		if c == t {
			ds.catalog = append(ds.catalog[:i], ds.catalog[i+1:]...)
			break
		}
	}
	return ds.writeManifestLocked(0)
}

// checkpointManifest rewrites the manifest from the current catalog — the
// WAL migration-close hook's entry point. It takes only manifestMu, never
// the engine lock (see the field comment on catalog).
func (ds *dirState) checkpointManifest() error {
	ds.manifestMu.Lock()
	defer ds.manifestMu.Unlock()
	return ds.writeManifestLocked(0)
}

// writeManifestLocked atomically replaces MANIFEST with the current
// catalog: marshal, write to a temp file, fsync, rename, fsync the
// directory. A crash at any point leaves either the old or the new
// manifest, never a torn one. Caller holds manifestMu.
func (ds *dirState) writeManifestLocked(nextID uint32) error {
	start := time.Now()
	if err := ds.writeManifestInnerLocked(nextID); err != nil {
		return err
	}
	ds.manifestWrites.Inc()
	ds.manifestNanos.Observe(time.Since(start).Nanoseconds())
	return nil
}

func (ds *dirState) writeManifestInnerLocked(nextID uint32) error {
	tables := make([]tableManifest, 0, len(ds.catalog))
	for _, t := range ds.catalog {
		tables = append(tables, catalogEntry(t))
	}
	ds.m.Tables = tables
	if nextID > ds.m.NextTableID {
		ds.m.NextTableID = nextID
	}
	body, err := json.Marshal(&ds.m)
	if err != nil {
		return err
	}
	buf := make([]byte, 0, 16+len(body))
	buf = append(buf, manifestMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, manifestVersion)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(body, manifestCRCTable))
	buf = append(buf, body...)

	tmp := filepath.Join(ds.dir, manifestTmpName)
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(ds.dir, manifestName)); err != nil {
		return err
	}
	return syncDir(ds.dir)
}

// parseManifest verifies and decodes a manifest image.
func parseManifest(raw []byte) (*manifest, error) {
	if len(raw) < 16 || string(raw[:8]) != string(manifestMagic[:]) {
		return nil, errors.New("masm: not a MaSM database manifest")
	}
	if v := binary.LittleEndian.Uint32(raw[8:]); v != manifestVersion {
		return nil, fmt.Errorf("masm: manifest version %d unsupported (this build reads %d)", v, manifestVersion)
	}
	body := raw[16:]
	if crc32.Checksum(body, manifestCRCTable) != binary.LittleEndian.Uint32(raw[12:]) {
		return nil, errors.New("masm: manifest checksum mismatch")
	}
	var m manifest
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("masm: manifest: %w", err)
	}
	if m.DataBytes <= 0 || m.CacheBytes <= 0 || m.LogBytes <= 0 || m.PageSize <= 0 {
		return nil, errors.New("masm: manifest geometry invalid")
	}
	if m.DataNext < 0 || m.DataNext > m.DataBytes {
		return nil, errors.New("masm: manifest data cursor out of range")
	}
	seenID := make(map[uint32]bool)
	seenName := make(map[string]bool)
	for i := range m.Tables {
		t := &m.Tables[i]
		if t.Name == "" || seenName[t.Name] {
			return nil, fmt.Errorf("masm: manifest: missing or duplicate table name %q", t.Name)
		}
		if seenID[t.ID] {
			return nil, fmt.Errorf("masm: manifest: duplicate table id %d", t.ID)
		}
		if t.ID >= m.NextTableID {
			return nil, fmt.Errorf("masm: manifest: table id %d not below next id %d", t.ID, m.NextTableID)
		}
		if t.DataOff < 0 || t.DataBytes <= 0 || t.DataOff > m.DataBytes || t.DataBytes > m.DataBytes-t.DataOff {
			return nil, fmt.Errorf("masm: manifest: table %q heap region [%d,%d) outside data file",
				t.Name, t.DataOff, t.DataOff+t.DataBytes)
		}
		if t.CacheBytes <= 0 || t.CacheBytes > m.CacheBytes {
			return nil, fmt.Errorf("masm: manifest: table %q cache cap %d outside (0,%d]", t.Name, t.CacheBytes, m.CacheBytes)
		}
		if t.MigTS < 0 {
			return nil, fmt.Errorf("masm: manifest: table %q migration stamp %d negative", t.Name, t.MigTS)
		}
		// With shadow paging, refs may point anywhere inside the heap
		// region — but never beyond it: a ref outside the region would read
		// another table's pages (table.Restore re-checks order/duplicates).
		maxPages := t.DataBytes / int64(m.PageSize)
		for _, r := range t.Refs {
			if r.PageNo < 0 || r.PageNo >= maxPages {
				return nil, fmt.Errorf("masm: manifest: table %q ref page %d outside heap region (%d pages)",
					t.Name, r.PageNo, maxPages)
			}
		}
		seenID[t.ID] = true
		seenName[t.Name] = true
	}
	return &m, nil
}

// readManifest loads and verifies MANIFEST.
func readManifest(dir string) (*manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	m, err := parseManifest(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", dir, err)
	}
	return m, nil
}

// checkManifest re-reads MANIFEST from disk, re-validates it, and
// cross-checks it against the live catalog — the durable half of
// Engine.CheckInvariants. Rows and page refs are deliberately not
// compared: the manifest snapshots them only at create/drop/migration
// checkpoints, so they lag the live table between checkpoints by design.
func (ds *dirState) checkManifest(tables []*Table, nextID uint32) error {
	m, err := readManifest(ds.dir)
	if err != nil {
		return fmt.Errorf("masm: invariant probe: %w", err)
	}
	if len(m.Tables) != len(tables) {
		return fmt.Errorf("masm: manifest lists %d tables, catalog holds %d", len(m.Tables), len(tables))
	}
	byID := make(map[uint32]*tableManifest, len(m.Tables))
	var dataHigh int64
	for i := range m.Tables {
		tm := &m.Tables[i]
		byID[tm.ID] = tm
		if end := tm.DataOff + tm.DataBytes; end > dataHigh {
			dataHigh = end
		}
	}
	for _, t := range tables {
		tm, ok := byID[t.id]
		if !ok {
			return fmt.Errorf("masm: live table %q (id %d) missing from the manifest", t.name, t.id)
		}
		if tm.Name != t.name {
			return fmt.Errorf("masm: manifest names table id %d %q, catalog %q", t.id, tm.Name, t.name)
		}
		if tm.DataOff != t.dataOff || tm.DataBytes != t.dataBytes {
			return fmt.Errorf("masm: table %q heap region diverged: manifest [%d,+%d), catalog [%d,+%d)",
				t.name, tm.DataOff, tm.DataBytes, t.dataOff, t.dataBytes)
		}
		if tm.CacheBytes != t.cacheBudget {
			return fmt.Errorf("masm: table %q cache cap diverged: manifest %d, catalog %d", t.name, tm.CacheBytes, t.cacheBudget)
		}
	}
	if m.NextTableID < nextID {
		return fmt.Errorf("masm: manifest next-table-id %d behind the engine's %d (a dropped id could be recycled)",
			m.NextTableID, nextID)
	}
	if m.DataNext < dataHigh {
		return fmt.Errorf("masm: manifest data cursor %d below the highest table region end %d", m.DataNext, dataHigh)
	}
	return nil
}
