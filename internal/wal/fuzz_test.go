package wal

// Fuzzing for the recovery decoding paths. Recovery reads bytes that a
// crash may have torn arbitrarily, so no input — however mangled — may
// panic: every decoder must either produce a value or return an error,
// and full-log replay must additionally terminate and never misreport an
// error for inputs whose corruption is confined to the (CRC-guarded)
// framing.

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"masm/internal/masm"
	"masm/internal/sim"
	"masm/internal/storage"
	"masm/internal/update"
)

func FuzzDecodeRunMeta(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, runMetaSize-1))
	f.Add(make([]byte, runMetaSize)) // must reject: no zone-map block
	f.Add(encodeRunMeta(nil, masm.RunMeta{RunID: 3, Off: 4096, Size: 512, MaxTS: 99, Passes: 2, Format: 2, CRC: 0xdeadbeef, IndexSize: 80}))
	// Must reject: the descriptor earlier builds wrote for a format-1 run,
	// which ends at the checksum, and its full-length form naming no block.
	v1 := encodeRunMeta(nil, masm.RunMeta{RunID: 3, Off: 4096, Size: 512, MaxTS: 99, Passes: 2, Format: 1, CRC: 0xdeadbeef})
	f.Add(v1[:runMetaSize-8])
	f.Add(v1)
	f.Fuzz(func(t *testing.T, p []byte) {
		rm, rest, err := decodeRunMeta(p)
		if err != nil {
			return
		}
		if rm.RunID < 0 || rm.Off < 0 || rm.Size < 0 || rm.IndexSize <= 0 {
			t.Fatalf("decodeRunMeta accepted impossible geometry: %+v", rm)
		}
		if len(rest) != len(p)-runMetaSize {
			t.Fatalf("decodeRunMeta consumed %d bytes of %d", len(p)-len(rest), len(p))
		}
		// Round-trip: re-encoding what we decoded must reproduce the input.
		re := encodeRunMeta(nil, rm)
		for i, b := range re {
			if p[i] != b {
				t.Fatalf("re-encode mismatch at byte %d", i)
			}
		}
	})
}

func FuzzDecodeIDs(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{255, 255, 255, 255})
	f.Add(encodeIDs(nil, []int64{1, 2, 3}))
	f.Fuzz(func(t *testing.T, p []byte) {
		ids, rest, err := decodeIDs(p)
		if err != nil {
			return
		}
		if len(rest) != len(p)-4-8*len(ids) {
			t.Fatalf("decodeIDs consumed %d bytes of %d", len(p)-len(rest), len(p))
		}
	})
}

// FuzzDecodeEntry drives the full per-record decoder with every kind byte.
// Beyond not panicking, it must reject what format 5 has no record for: a
// kind byte outside the eight kinds (9–13 were kinds of formats 3 and 4),
// and a per-table record too short to hold its table id.
func FuzzDecodeEntry(f *testing.F) {
	run := masm.RunMeta{RunID: 3, Size: 64, Format: 2, IndexSize: 80}
	f.Add(uint8(KindUpdate), update.AppendEncode(tablePrefix(0, 0), &update.Record{TS: 1, Key: 2, Op: update.Insert, Payload: []byte("x")}))
	f.Add(uint8(KindFlush), encodeRunMeta(tablePrefix(7, 0), run))
	f.Add(uint8(KindMerge), encodeIDs(encodeRunMeta(tablePrefix(7, 0), run), []int64{0}))
	f.Add(uint8(KindMigrationBegin), encodeIDs(append(tablePrefix(7, 0), make([]byte, 8)...), []int64{7}))
	f.Add(uint8(KindMigrationPortion), encodeIDs(append(tablePrefix(7, 0), make([]byte, 8)...), nil))
	f.Add(uint8(KindOracleAdvance), make([]byte, 8))
	for _, k := range []Kind{KindUpdate, KindFlush, KindMerge, KindMigrationBegin, KindMigrationPortion} {
		f.Add(uint8(k), []byte{})          // must reject: no table id
		f.Add(uint8(k), []byte{1, 0})      // must reject: torn table id
		f.Add(uint8(k), tablePrefix(7, 0)) // table id, body absent
	}
	f.Add(uint8(kindMax)+1, make([]byte, 12))            // must reject: retired kind byte
	f.Add(uint8(kindMax)+6, []byte{7, 0, 0, 0})          // must reject: retired kind byte
	f.Add(uint8(KindFlush), make([]byte, 4+runMetaSize)) // must reject: run without a zone-map block
	f.Add(uint8(KindTxnBatch), []byte{})                 // short batch
	f.Add(uint8(KindTxnBatch), []byte{2, 0, 0, 0})       // truncated part header
	f.Add(uint8(KindTxnBatch), encodeTxnBatch(nil))      // empty batch
	f.Add(uint8(KindTxnBatch), encodeTxnBatch([]masm.TxnPart{
		{Table: 0, Recs: []update.Record{{TS: 9, Key: 1, Op: update.Insert, Payload: []byte("a")}}},
		{Table: 3, Recs: []update.Record{{TS: 10, Key: 2, Op: update.Delete}}},
	}))
	f.Fuzz(func(t *testing.T, kind uint8, p []byte) {
		e, err := decodeEntry(Kind(kind), p) // must not panic
		if err != nil {
			return
		}
		if e.Kind == KindEnd || e.Kind > kindMax {
			t.Fatalf("decodeEntry accepted kind %d", kind)
		}
		switch e.Kind {
		case KindUpdate, KindFlush, KindMerge, KindMigrationBegin, KindMigrationPortion:
			if len(p) < 4 || e.Table != binary.LittleEndian.Uint32(p) {
				t.Fatalf("kind %d: table %d from payload %x", kind, e.Table, p)
			}
		}
	})
}

// FuzzDecodeTxnBatch hammers the cross-table commit-record decoder on its
// own: implausible part/record counts, truncation at every boundary, and
// trailing garbage must all surface as errors, never panics or giant
// allocations.
func FuzzDecodeTxnBatch(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{255, 255, 255, 255})
	f.Add(encodeTxnBatch([]masm.TxnPart{
		{Table: 1, Recs: []update.Record{{TS: 1, Key: 5, Op: update.Insert, Payload: []byte("xy")}}},
	}))
	f.Fuzz(func(t *testing.T, p []byte) {
		parts, err := decodeTxnBatch(p)
		if err == nil {
			if reenc := encodeTxnBatch(parts); !bytes.Equal(reenc, p) {
				t.Fatalf("txn batch not canonical: %x != %x", reenc, p)
			}
		}
	})
}

// FuzzReadAll scribbles arbitrary bytes over a log volume and replays it:
// recovery must terminate without panicking whatever the disk holds. When
// the bytes start with a valid header, replay must succeed (torn tails
// end replay silently); only CRC-valid-but-undecodable records — a format
// bug, not corruption — may surface errors. A well-formed header of any
// other format version must be refused, never replayed.
func FuzzReadAll(f *testing.F) {
	h := encodeHeader()
	f.Add([]byte{})
	f.Add(h[:])
	v4 := validLogBytes(f, 3)
	patchHeaderVersion(v4, 4)
	f.Add(v4) // must reject: a format-4 header over decodable frames
	f.Add(append(append([]byte{}, h[:]...), 1, 200, 0, 0, 0, 9, 9, 9, 9))
	// A legitimate small log, then mangled variants via mutation.
	f.Add(validLogBytes(f, 3))
	f.Add(validMultiTableLogBytes(f))
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 1<<20 {
			raw = raw[:1<<20]
		}
		dev := sim.NewDevice(sim.Barracuda7200())
		vol, err := storage.NewVolume(dev, 0, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if err := vol.PokeAt(raw, 0); err != nil {
			t.Fatal(err)
		}
		entries, _, err := readAll(vol, 0)
		if len(raw) >= headerSize && bytes.Equal(raw[:8], magic[:]) &&
			crc32.Checksum(raw[:12], castagnoli) == binary.LittleEndian.Uint32(raw[12:]) &&
			binary.LittleEndian.Uint32(raw[8:]) != FormatVersion && err == nil {
			t.Fatalf("replay accepted a format-%d header", binary.LittleEndian.Uint32(raw[8:]))
		}
		if err != nil {
			return
		}
		for _, e := range entries {
			if e.Kind == KindEnd || e.Kind > kindMax {
				t.Fatalf("replay surfaced invalid kind %d", e.Kind)
			}
		}
	})
}

// patchHeaderVersion rewrites a rendered log's header to name another
// format version, with a valid header checksum.
func patchHeaderVersion(raw []byte, v uint32) {
	binary.LittleEndian.PutUint32(raw[8:], v)
	binary.LittleEndian.PutUint32(raw[12:], crc32.Checksum(raw[:12], castagnoli))
}

// validLogBytes renders a small real log into raw bytes for the seed
// corpus.
func validLogBytes(f *testing.F, n int) []byte {
	f.Helper()
	dev := sim.NewDevice(sim.Barracuda7200())
	vol, err := storage.NewVolume(dev, 0, 1<<20)
	if err != nil {
		f.Fatal(err)
	}
	l := Open(vol)
	t0 := l.ForTable(0)
	now := sim.Time(0)
	for i := 0; i < n; i++ {
		now, err = t0.LogUpdate(now, update.Record{TS: int64(i + 1), Key: uint64(i), Op: update.Insert, Payload: []byte("payload")})
		if err != nil {
			f.Fatal(err)
		}
	}
	if now, err = t0.LogFlush(now, masm.RunMeta{RunID: 1, Size: 64, MaxTS: int64(n), Passes: 1, Format: 2, CRC: 7, IndexSize: 80}); err != nil {
		f.Fatal(err)
	}
	if _, err = l.Sync(now); err != nil {
		f.Fatal(err)
	}
	raw := make([]byte, l.EndOffset()+frameHeaderSize)
	if err := vol.PeekAt(raw, 0); err != nil {
		f.Fatal(err)
	}
	return raw
}

// validMultiTableLogBytes renders a small catalog log — records from two
// tables plus one cross-table transaction batch — for the replay
// fuzzer's seed corpus.
func validMultiTableLogBytes(f *testing.F) []byte {
	f.Helper()
	dev := sim.NewDevice(sim.Barracuda7200())
	vol, err := storage.NewVolume(dev, 0, 1<<20)
	if err != nil {
		f.Fatal(err)
	}
	l := Open(vol)
	t0 := l.ForTable(0)
	t5 := l.ForTable(5)
	now := sim.Time(0)
	if now, err = t0.LogUpdate(now, update.Record{TS: 1, Key: 10, Op: update.Insert, Payload: []byte("t0")}); err != nil {
		f.Fatal(err)
	}
	if now, err = t5.LogUpdate(now, update.Record{TS: 2, Key: 10, Op: update.Insert, Payload: []byte("t5")}); err != nil {
		f.Fatal(err)
	}
	if now, err = t5.LogFlush(now, masm.RunMeta{RunID: 1, Size: 64, MaxTS: 2, Passes: 1, Format: 2, CRC: 7, IndexSize: 80}); err != nil {
		f.Fatal(err)
	}
	if now, err = t0.LogTxnBatch(now, []masm.TxnPart{
		{Table: 0, Recs: []update.Record{{TS: 3, Key: 11, Op: update.Insert, Payload: []byte("x")}}},
		{Table: 5, Recs: []update.Record{{TS: 4, Key: 12, Op: update.Delete}}},
	}); err != nil {
		f.Fatal(err)
	}
	if now, err = t5.LogMigrationBegin(now, 5, []int64{1}); err != nil {
		f.Fatal(err)
	}
	if now, err = t5.LogMigrationPortion(now, 5, []int64{1}); err != nil {
		f.Fatal(err)
	}
	if _, err = l.Sync(now); err != nil {
		f.Fatal(err)
	}
	raw := make([]byte, l.EndOffset()+frameHeaderSize)
	if err := vol.PeekAt(raw, 0); err != nil {
		f.Fatal(err)
	}
	return raw
}
