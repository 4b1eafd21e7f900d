package storage

import (
	"bytes"
	"math/rand"
	"testing"

	"masm/internal/sim"
)

// TestIOPoolRoundTrip moves a batch of scattered writes then reads
// through the pool and checks the bytes and the virtual clock: the
// pooled batch must price exactly like the serial loop it replaces.
func TestIOPoolRoundTrip(t *testing.T) {
	mkVol := func() *Volume {
		dev := sim.NewDevice(sim.IntelX25E())
		vol, err := NewVolume(dev, 0, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		return vol
	}
	rng := rand.New(rand.NewSource(42))
	var wreqs []IOReq
	for i := 0; i < 40; i++ {
		b := make([]byte, 1024+rng.Intn(4096))
		rng.Read(b)
		wreqs = append(wreqs, IOReq{Buf: b, Off: int64(i) * 8192, Write: true})
	}

	// Serial reference: plain WriteAt chain.
	ref := mkVol()
	now := sim.Time(0)
	for _, r := range wreqs {
		c, err := ref.WriteAt(now, r.Buf, r.Off)
		if err != nil {
			t.Fatal(err)
		}
		now = c.End
	}

	pool := NewIOPool(6)
	vol := mkVol()
	got, err := pool.RunAndCharge(vol, 0, wreqs)
	if err != nil {
		t.Fatal(err)
	}
	if got != now {
		t.Fatalf("pooled batch priced to %v, serial loop to %v: virtual timeline drifted", got, now)
	}
	if rs, ps := ref.dev.Stats(), vol.dev.Stats(); rs != ps {
		t.Fatalf("device accounting drifted: serial %+v pooled %+v", rs, ps)
	}

	// Read everything back through the pool.
	var rreqs []IOReq
	for _, w := range wreqs {
		rreqs = append(rreqs, IOReq{Buf: make([]byte, len(w.Buf)), Off: w.Off})
	}
	if _, err := pool.RunAndCharge(vol, got, rreqs); err != nil {
		t.Fatal(err)
	}
	for i := range rreqs {
		if !bytes.Equal(rreqs[i].Buf, wreqs[i].Buf) {
			t.Fatalf("request %d round trip lost data", i)
		}
	}
	if pool.peak.Load() < 2 {
		t.Fatalf("pool never sustained I/O depth > 1 (peak %d)", pool.peak.Load())
	}
}

// TestIOPoolErrorSurfaces checks a failing request poisons the batch.
func TestIOPoolErrorSurfaces(t *testing.T) {
	dev := sim.NewDevice(sim.IntelX25E())
	vol, err := NewVolume(dev, 0, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewIOPool(4)
	reqs := []IOReq{
		{Buf: make([]byte, 512), Off: 0, Write: true},
		{Buf: make([]byte, 512), Off: 1 << 20, Write: true}, // out of bounds
	}
	if err := pool.Run(vol, reqs); err == nil {
		t.Fatal("out-of-bounds request did not surface an error")
	}
}
