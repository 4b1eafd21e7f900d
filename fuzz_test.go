package masm

// Fuzzing for the directory-recovery decoders of the facade: the catalog
// manifest. As with the WAL fuzz suite, no input —
// however mangled — may panic recovery; decoders either produce a
// validated value or return an error.

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"testing"

	"masm/internal/table"
)

// manifestImage renders a framed manifest file image for the seed corpus.
func manifestImage(f *testing.F, version uint32, body any) []byte {
	f.Helper()
	js, err := json.Marshal(body)
	if err != nil {
		f.Fatal(err)
	}
	buf := make([]byte, 0, 16+len(js))
	buf = append(buf, manifestMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, version)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(js, manifestCRCTable))
	return append(buf, js...)
}

func FuzzParseManifest(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("MaSMdir\x00"))
	// The retired version-1 (pre-catalog) image: well-formed, must be
	// rejected by its version.
	v1 := manifestImage(f, 1, v1ManifestBody{
		DataBytes: 1 << 20, CacheBytes: 1 << 20, LogBytes: 1 << 20,
		PageSize: 4096, ScanIO: 1 << 20, FillFraction: 0.9, Rows: 10,
		Refs: []table.Ref{{}},
	})
	if _, err := parseManifest(v1); err == nil {
		f.Fatal("version-1 manifest accepted")
	}
	f.Add(v1)
	f.Add(manifestImage(f, manifestVersion, manifest{
		DataBytes: 2 << 20, CacheBytes: 1 << 20, LogBytes: 1 << 20,
		PageSize: 4096, ScanIO: 1 << 20, FillFraction: 0.9,
		DataNext: 1 << 20, NextTableID: 2,
		Tables: []tableManifest{
			{Name: "default", ID: 0, DataOff: 0, DataBytes: 512 << 10, CacheBytes: 512 << 10, Rows: 5},
			{Name: "orders", ID: 1, DataOff: 512 << 10, DataBytes: 512 << 10, CacheBytes: 1 << 20, Rows: 7},
		},
	}))
	// Shadow-commit record: per-table migration stamp plus refs pointing
	// at relocated (non-identity) slots, the shape a crash mid-migration
	// leaves behind.
	f.Add(manifestImage(f, manifestVersion, manifest{
		DataBytes: 2 << 20, CacheBytes: 1 << 20, LogBytes: 1 << 20,
		PageSize: 4096, ScanIO: 1 << 20, FillFraction: 0.9,
		DataNext: 1 << 20, NextTableID: 1,
		Tables: []tableManifest{
			{Name: "shadow", ID: 0, DataOff: 0, DataBytes: 512 << 10, CacheBytes: 512 << 10,
				Rows: 5, MigTS: 42, Refs: []table.Ref{{FirstKey: 2, PageNo: 7}, {FirstKey: 100, PageNo: 3}}},
		},
	}))
	// Hostile shadow-commit records: a negative stamp and a ref past the
	// table's heap region must both be rejected.
	f.Add(manifestImage(f, manifestVersion, manifest{
		DataBytes: 1 << 20, CacheBytes: 1 << 20, LogBytes: 1 << 20, PageSize: 4096,
		NextTableID: 1,
		Tables: []tableManifest{
			{Name: "a", ID: 0, DataOff: 0, DataBytes: 512 << 10, CacheBytes: 1 << 10, MigTS: -1},
		},
	}))
	f.Add(manifestImage(f, manifestVersion, manifest{
		DataBytes: 1 << 20, CacheBytes: 1 << 20, LogBytes: 1 << 20, PageSize: 4096,
		NextTableID: 1,
		Tables: []tableManifest{
			{Name: "a", ID: 0, DataOff: 0, DataBytes: 512 << 10, CacheBytes: 1 << 10,
				Refs: []table.Ref{{FirstKey: 2, PageNo: 1 << 40}}},
		},
	}))
	// Hostile catalogs: duplicate ids, regions past the file, cap above
	// the engine cache — all must be rejected, not trusted.
	f.Add(manifestImage(f, manifestVersion, manifest{
		DataBytes: 1 << 20, CacheBytes: 1 << 20, LogBytes: 1 << 20, PageSize: 4096,
		NextTableID: 1,
		Tables: []tableManifest{
			{Name: "a", ID: 0, DataOff: 0, DataBytes: 2 << 20, CacheBytes: 1},
		},
	}))
	f.Add(manifestImage(f, 99, map[string]int{"x": 1}))
	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := parseManifest(raw)
		if err != nil {
			return
		}
		if v := binary.LittleEndian.Uint32(raw[8:]); v != manifestVersion {
			t.Fatalf("accepted manifest version %d", v)
		}
		// Whatever parses must be internally consistent: recovery trusts
		// these invariants when slicing files and partitioning the cache.
		if m.DataBytes <= 0 || m.CacheBytes <= 0 || m.LogBytes <= 0 || m.PageSize <= 0 {
			t.Fatalf("accepted invalid geometry: %+v", m)
		}
		if m.DataNext < 0 || m.DataNext > m.DataBytes {
			t.Fatalf("accepted bad data cursor: %+v", m)
		}
		ids := make(map[uint32]bool)
		names := make(map[string]bool)
		for _, tm := range m.Tables {
			if tm.Name == "" || names[tm.Name] || ids[tm.ID] || tm.ID >= m.NextTableID {
				t.Fatalf("accepted bad catalog entry: %+v", tm)
			}
			// Subtraction form: the additive check would overflow for the
			// same hostile values the parser must reject.
			if tm.DataOff < 0 || tm.DataBytes <= 0 || tm.DataOff > m.DataBytes || tm.DataBytes > m.DataBytes-tm.DataOff {
				t.Fatalf("accepted heap region outside data file: %+v", tm)
			}
			if tm.CacheBytes <= 0 || tm.CacheBytes > m.CacheBytes {
				t.Fatalf("accepted bad cache cap: %+v", tm)
			}
			// Shadow-commit record: the migration stamp is non-negative and
			// every page ref lands inside the table's own heap region —
			// Restore trusts these when rederiving the free-slot set.
			if tm.MigTS < 0 {
				t.Fatalf("accepted negative migration stamp: %+v", tm)
			}
			maxPages := tm.DataBytes / int64(m.PageSize)
			for _, r := range tm.Refs {
				if r.PageNo < 0 || r.PageNo >= maxPages {
					t.Fatalf("accepted ref outside heap region: %+v in %+v", r, tm)
				}
			}
			ids[tm.ID] = true
			names[tm.Name] = true
		}
	})
}
