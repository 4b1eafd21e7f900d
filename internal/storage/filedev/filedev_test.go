package filedev

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"masm/internal/sim"
	"masm/internal/storage"
)

func TestReadWriteSparseZeros(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev")
	d, err := Open(path, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Size() != 1<<20 {
		t.Fatalf("size %d", d.Size())
	}
	// Unwritten bytes read as zero.
	p := make([]byte, 64)
	if err := d.ReadAt(p, 12345); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, make([]byte, 64)) {
		t.Fatal("fresh region not zero")
	}
	want := []byte("hello durable world")
	if err := d.WriteAt(want, 500_000); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if err := d.ReadAt(got, 500_000); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %q want %q", got, want)
	}
	// Out-of-range access is rejected.
	if err := d.ReadAt(p, 1<<20-10); err == nil {
		t.Fatal("read past capacity accepted")
	}
	if err := d.WriteAt(p, -1); err == nil {
		t.Fatal("negative write offset accepted")
	}
}

func TestPersistsAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev")
	d, err := Open(path, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("survives the process")
	if err := d.WriteAt(want, 777); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(path, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	got := make([]byte, len(want))
	if err := d2.ReadAt(got, 777); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %q want %q after reopen", got, want)
	}
}

func TestRejectsOversizedExisting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev")
	if err := os.WriteFile(path, make([]byte, 4096), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, 1024); err == nil {
		t.Fatal("accepted a file larger than the declared capacity")
	}
}

func TestTruncatedTailReadsZero(t *testing.T) {
	// A torn-tail recovery test truncates the file externally; reads past
	// the shortened end must come back as zeros, not errors.
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
	for i := 50; i < 200; i++ {
		if p[i] != 0 {
			t.Fatalf("byte %d past the truncation reads %#x, want 0", i, p[i])
		}
	}
}

// TestVolumeOverFile checks the Volume plumbing end to end: simulated time
// is still charged while the bytes land in the file.
func TestVolumeOverFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev")
	d, err := Open(path, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	dev := sim.NewDevice(sim.IntelX25E())
	vol, err := storage.NewVolumeOn(dev, 0, d)
	if err != nil {
		t.Fatal(err)
	}
	defer vol.Close()
	want := bytes.Repeat([]byte{7}, 4096)
	c, err := vol.WriteAt(0, want, 8192)
	if err != nil {
		t.Fatal(err)
	}
	if c.End <= c.Start {
		t.Fatal("write charged no simulated time")
	}
	got := make([]byte, len(want))
	if _, err := vol.ReadAt(c.End, got, 8192); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("volume round trip through file backend lost data")
	}
	if err := vol.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := dev.Stats(); st.BytesWritten != 4096 || st.BytesRead != 4096 {
		t.Fatalf("device accounting off: %+v", st)
	}
}
