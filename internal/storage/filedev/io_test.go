package filedev

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// TestShortIOLoops forces every pread/pwrite syscall to move at most a
// few bytes and proves the ReadAt/WriteAt loops still transfer full
// requests — the kernel is allowed to return short counts and the
// backend must never surface them.
func TestShortIOLoops(t *testing.T) {
	defer setIOChunkLimit(7)()
	path := filepath.Join(t.TempDir(), "dev")
	d, err := Open(path, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	rng := rand.New(rand.NewSource(8))
	want := make([]byte, 64<<10)
	rng.Read(want)
	if err := d.WriteAt(want, 12345); err != nil {
		t.Fatalf("write under 7-byte syscall cap: %v", err)
	}
	got := make([]byte, len(want))
	if err := d.ReadAt(got, 12345); err != nil {
		t.Fatalf("read under 7-byte syscall cap: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("short-I/O loop lost or reordered bytes")
	}
}

// TestShortIOAcrossTruncatedTail combines the partial-syscall cap with an
// external truncation: the loop must stitch together the real bytes and
// then zero-fill past the clean EOF.
func TestShortIOAcrossTruncatedTail(t *testing.T) {
	defer setIOChunkLimit(3)()
	path := filepath.Join(t.TempDir(), "dev")
	d, err := Open(path, 8192)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.WriteAt(bytes.Repeat([]byte{0xaa}, 8192), 0); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, 100); err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 200)
	if err := d.ReadAt(p, 50); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if p[i] != 0xaa {
			t.Fatalf("byte %d before the truncation reads %#x, want 0xaa", i, p[i])
		}
	}
	for i := 50; i < 200; i++ {
		if p[i] != 0 {
			t.Fatalf("byte %d past the truncation reads %#x, want 0", i, p[i])
		}
	}
}
