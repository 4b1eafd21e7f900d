package storage

import (
	"bytes"
	"testing"

	"masm/internal/sim"
)

func testVolume(t *testing.T, size int64) *Volume {
	t.Helper()
	dev := sim.NewDevice(sim.Barracuda7200())
	v, err := NewVolume(dev, 0, size)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestVolumeRoundTrip(t *testing.T) {
	v := testVolume(t, 8<<20)
	data := make([]byte, 3<<20)
	for i := range data {
		data[i] = byte(i * 7)
	}
	c, err := v.WriteAt(0, data, 12345)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := v.ReadAt(c.End, got, 12345); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read-back mismatch")
	}
}

func TestVolumeZeroFill(t *testing.T) {
	v := testVolume(t, 1<<20)
	got := make([]byte, 1024)
	for i := range got {
		got[i] = 0xff
	}
	if _, err := v.ReadAt(0, got, 500); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("unwritten byte %d = %#x, want 0", i, b)
		}
	}
}

func TestVolumeBounds(t *testing.T) {
	v := testVolume(t, 1<<20)
	if _, err := v.ReadAt(0, make([]byte, 10), 1<<20-5); err == nil {
		t.Fatalf("expected out-of-bounds error")
	}
	if _, err := v.WriteAt(0, make([]byte, 10), -1); err == nil {
		t.Fatalf("expected negative-offset error")
	}
}

func TestArenaNonOverlapping(t *testing.T) {
	dev := sim.NewDevice(sim.IntelX25E())
	a := NewArena(dev)
	v1, err := a.Alloc(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := a.Alloc(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := v1.PokeAt(bytes.Repeat([]byte{1}, 1<<20), 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 1<<20)
	if err := v2.PeekAt(got, 0); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("volumes overlap at byte %d", i)
		}
	}
}

func TestSequentialWriterIsSequentialOnDevice(t *testing.T) {
	dev := sim.NewDevice(sim.IntelX25E())
	v, err := NewVolume(dev, 0, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	w := NewSequentialWriter(v, 0, 0)
	chunk := make([]byte, 64<<10)
	for i := 0; i < 32; i++ {
		if _, err := w.Write(chunk); err != nil {
			t.Fatal(err)
		}
	}
	st := dev.Stats()
	if st.RandomWrites != 0 {
		t.Fatalf("sequential writer produced %d random writes", st.RandomWrites)
	}
	if st.Seeks > 1 {
		t.Fatalf("sequential writer produced %d seeks, want <=1", st.Seeks)
	}
	if w.off != 32*64<<10 {
		t.Fatalf("offset = %d", w.off)
	}
}
