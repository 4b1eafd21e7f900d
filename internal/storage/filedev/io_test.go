package filedev

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"masm/internal/sim"
	"masm/internal/storage"
)

// TestShortIOLoops forces every pread/pwrite syscall to move at most a
// few bytes and proves the ReadAt/WriteAt loops still transfer full
// requests — the kernel is allowed to return short counts and the
// backend must never surface them.
func TestShortIOLoops(t *testing.T) {
	defer setIOChunkLimit(7)()
	path := filepath.Join(t.TempDir(), "dev")
	d, err := Open(path, 1<<20, Options{})
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
	d, err := Open(path, 8192, Options{})
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

// TestIOPoolOverFile drives a pooled batch against a real file volume:
// the bytes and the virtual clock must come out identical to a serial
// loop.
func TestIOPoolOverFile(t *testing.T) {
	mk := func(name string) *storage.Volume {
		d, err := Open(filepath.Join(t.TempDir(), name), 1<<20, Options{Direct: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		vol, err := storage.NewVolumeOn(sim.NewDevice(sim.IntelX25E()), 0, d)
		if err != nil {
			t.Fatal(err)
		}
		return vol
	}
	rng := rand.New(rand.NewSource(99))
	var wreqs []storage.IOReq
	for i := 0; i < 24; i++ {
		n := 512 + rng.Intn(8192)
		if i%3 == 0 {
			n = DirectAlign * (1 + rng.Intn(2)) // some direct-eligible
		}
		b := make([]byte, n)
		rng.Read(b)
		off := int64(i) * 16384
		if i%3 == 0 {
			off = int64(i) * DirectAlign * 4
		}
		wreqs = append(wreqs, storage.IOReq{Buf: b, Off: off, Write: true})
	}

	ref := mk("serial")
	now := sim.Time(0)
	for _, r := range wreqs {
		c, err := ref.WriteAt(now, r.Buf, r.Off)
		if err != nil {
			t.Fatal(err)
		}
		now = c.End
	}

	pool := storage.NewIOPool(8)
	vol := mk("pooled")
	got, err := pool.RunAndCharge(vol, 0, wreqs)
	if err != nil {
		t.Fatal(err)
	}
	if got != now {
		t.Fatalf("pooled batch priced to %v, serial to %v", got, now)
	}
	rreqs := make([]storage.IOReq, len(wreqs))
	for i, w := range wreqs {
		rreqs[i] = storage.IOReq{Buf: make([]byte, len(w.Buf)), Off: w.Off}
	}
	if _, err := pool.RunAndCharge(vol, got, rreqs); err != nil {
		t.Fatal(err)
	}
	for i := range rreqs {
		if !bytes.Equal(rreqs[i].Buf, wreqs[i].Buf) {
			t.Fatalf("request %d round trip through file-backed pool lost data", i)
		}
	}
}

// TestDirectModeRoundTrip opens the backend in direct mode and round-trips
// both an aligned request (direct-eligible) and an unaligned one (must
// silently take the buffered fd). Filesystems without O_DIRECT support
// fall back to buffered I/O, so the test asserts data integrity, not which
// fd served the request.
func TestDirectModeRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev")
	d, err := Open(path, 1<<20, Options{Direct: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	t.Logf("direct mode active: %v", d.df != nil)

	aligned := storage.GetAligned(DirectAlign * 2)[:DirectAlign*2]
	defer storage.PutAligned(aligned)
	if !storage.Aligned(aligned, DirectAlign) {
		t.Fatal("pool returned a misaligned buffer")
	}
	for i := range aligned {
		aligned[i] = byte(i * 31)
	}
	if err := d.WriteAt(aligned, DirectAlign*4); err != nil {
		t.Fatalf("aligned write: %v", err)
	}
	back := storage.GetAligned(len(aligned))[:len(aligned)]
	defer storage.PutAligned(back)
	if err := d.ReadAt(back, DirectAlign*4); err != nil {
		t.Fatalf("aligned read: %v", err)
	}
	if !bytes.Equal(back, aligned) {
		t.Fatal("aligned round trip lost data")
	}

	odd := []byte("unaligned tail crossing nothing in particular")
	if err := d.WriteAt(odd, 777); err != nil {
		t.Fatalf("unaligned write: %v", err)
	}
	got := make([]byte, len(odd))
	if err := d.ReadAt(got, 777); err != nil {
		t.Fatalf("unaligned read: %v", err)
	}
	if !bytes.Equal(got, odd) {
		t.Fatal("unaligned round trip lost data")
	}
}
