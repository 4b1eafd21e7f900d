package wal

import (
	"bytes"
	"testing"

	"masm/internal/masm"
	"masm/internal/runfile"
)

// TestRunMetaDescriptor pins the one run descriptor: fixed size, zone-map
// block length always present, and a descriptor without a block — what a
// format-1 run's would say — refused at decode, as is a truncated one.
func TestRunMetaDescriptor(t *testing.T) {
	rm := masm.RunMeta{RunID: 3, Off: 4096, Size: 1 << 16, MaxTS: 77,
		Passes: 2, Format: runfile.FormatVersion, CRC: 0xDEADBEEF, IndexSize: 4104}
	enc := encodeRunMeta(nil, rm)
	if len(enc) != runMetaSize {
		t.Fatalf("descriptor is %d bytes, want %d", len(enc), runMetaSize)
	}
	dec, rest, err := decodeRunMeta(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 || dec != rm {
		t.Fatalf("round trip: %+v (rest %d)", dec, len(rest))
	}

	// The format field is carried, not judged, here: core.Store.Restore refuses a
	// version it cannot read, naming both.
	old := rm
	old.Format = 1
	if dec, _, err := decodeRunMeta(encodeRunMeta(nil, old)); err != nil || dec.Format != 1 {
		t.Fatalf("format-1 descriptor with a block: %+v err=%v", dec, err)
	}

	for _, indexSize := range []int64{0, -24} {
		bad := rm
		bad.IndexSize = indexSize
		if _, _, err := decodeRunMeta(encodeRunMeta(nil, bad)); err == nil {
			t.Fatalf("descriptor with index size %d decoded without error", indexSize)
		}
	}
	// The descriptor earlier builds wrote for a format-1 run stops before
	// the block length.
	if _, _, err := decodeRunMeta(enc[:runMetaSize-8]); err == nil {
		t.Fatal("truncated descriptor decoded without error")
	}

	// Trailing bytes beyond one descriptor are returned, not consumed.
	tail := []byte{1, 2, 3}
	dec, rest, err = decodeRunMeta(append(append([]byte(nil), enc...), tail...))
	if err != nil || dec != rm {
		t.Fatalf("concatenated decode: %+v err=%v", dec, err)
	}
	if !bytes.Equal(rest, tail) {
		t.Fatalf("concatenated decode left %x, want %x", rest, tail)
	}
}
