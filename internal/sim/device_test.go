package sim

import (
	"testing"
)

func TestHDDSequentialBandwidth(t *testing.T) {
	d := NewDevice(Barracuda7200())
	// First request from unknown head position pays a seek.
	c := d.Read(0, 0, 1<<20)
	seek := Barracuda7200().SeekTime + Barracuda7200().RotationalLatency
	mb := float64(int64(1) << 20)
	transfer := Duration(mb / (77 * mb) * float64(Second))
	if got, want := c.End.Sub(c.Start), seek+transfer; !about(got, want, 0.01) {
		t.Fatalf("first 1MB read latency = %v, want ~%v", got, want)
	}
	// Contiguous follow-up is pure transfer.
	c2 := d.Read(c.End, 1<<20, 1<<20)
	if got := c2.End.Sub(c2.Start); !about(got, transfer, 0.01) {
		t.Fatalf("sequential 1MB read latency = %v, want ~%v", got, transfer)
	}
	if d.Stats().Seeks != 1 {
		t.Fatalf("seeks = %d, want 1", d.Stats().Seeks)
	}
}

func TestHDDRandomReadsPaySeeks(t *testing.T) {
	d := NewDevice(Barracuda7200())
	var now Time
	const n = 10
	for i := 0; i < n; i++ {
		c := d.Read(now, int64(i)*1<<30, 4<<10)
		now = c.End
	}
	p := Barracuda7200()
	perOp := p.SeekTime + p.RotationalLatency
	if got := now; float64(got) < 0.9*float64(n)*float64(perOp) {
		t.Fatalf("10 random reads took %v, want at least ~%v", got, Duration(n)*perOp)
	}
	if d.Stats().Seeks != n {
		t.Fatalf("seeks = %d, want %d", d.Stats().Seeks, n)
	}
}

func TestSSDRandomReadIOPS(t *testing.T) {
	d := NewDevice(IntelX25E())
	var now Time
	const n = 1000
	for i := 0; i < n; i++ {
		c := d.Read(now, int64(i)*1<<20, 4<<10)
		now = c.End
	}
	// ~28us overhead + ~15.6us transfer per 4KB read: should sustain well
	// over 10k IOPS and well under 100k.
	iops := float64(n) / now.Seconds()
	if iops < 10_000 || iops > 100_000 {
		t.Fatalf("SSD random 4KB read rate = %.0f IOPS, want O(20k-30k)", iops)
	}
}

func TestSSDSequentialFasterThanHDD(t *testing.T) {
	ssd := NewDevice(IntelX25E())
	hdd := NewDevice(Barracuda7200())
	cs := ssd.Read(0, 0, 100<<20)
	ch := hdd.Read(0, 0, 100<<20)
	if cs.End >= ch.End {
		t.Fatalf("100MB: SSD %v not faster than HDD %v", cs.End, ch.End)
	}
}

func TestDeviceQueueing(t *testing.T) {
	d := NewDevice(Barracuda7200())
	c1 := d.Read(0, 0, 1<<20)
	// Second request issued at time 0 must wait for the first.
	c2 := d.Read(0, 1<<20, 1<<20)
	if c2.Start != c1.End {
		t.Fatalf("queued request started at %v, want %v", c2.Start, c1.End)
	}
}

func TestRandomWriteCounting(t *testing.T) {
	d := NewDevice(IntelX25E())
	d.Write(0, 0, 64<<10)     // sequential-start large write: not random
	d.Write(0, 10<<20, 4<<10) // small non-contiguous: random
	d.Write(0, 10<<20+4<<10, 4<<10)
	if got := d.Stats().RandomWrites; got != 1 {
		t.Fatalf("random writes = %d, want 1", got)
	}
}

func TestDeviceBoundsPanic(t *testing.T) {
	d := NewDevice(Barracuda7200())
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on out-of-capacity request")
		}
	}()
	d.Read(0, Barracuda7200().Capacity, 4<<10)
}

func TestGroupMaxCompletion(t *testing.T) {
	var g Group
	g.Observe(Completion{Start: 0, End: 10})
	g.Observe(Completion{Start: 0, End: 5})
	if got := g.Wait(2); got != 10 {
		t.Fatalf("group wait = %v, want 10", got)
	}
	if got := g.Wait(20); got != 20 {
		t.Fatalf("group wait with later now = %v, want 20", got)
	}
}

func about(got, want Duration, tol float64) bool {
	d := float64(got - want)
	if d < 0 {
		d = -d
	}
	return d <= tol*float64(want)
}
