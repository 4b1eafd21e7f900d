package sim

import "testing"

func TestTimeHelpers(t *testing.T) {
	a, b := Time(5), Time(9)
	if MaxTime(a, b) != b || MaxTime(b, a) != b {
		t.Fatal("MaxTime broken")
	}
	if Time(2*Second).Seconds() != 2 {
		t.Fatal("Seconds broken")
	}
	if Time(Second).Sub(0) != Second {
		t.Fatal("Sub broken")
	}
	if Time(Millisecond).String() != "1ms" {
		t.Fatalf("String = %q", Time(Millisecond).String())
	}
}

func TestDeviceKindString(t *testing.T) {
	if HDD.String() != "hdd" || SSD.String() != "ssd" {
		t.Fatal("kind strings broken")
	}
	if DeviceKind(9).String() == "" {
		t.Fatal("unknown kind should still format")
	}
}

func TestDeviceParamsValidate(t *testing.T) {
	p := Barracuda7200()
	p.Capacity = 0
	if p.Validate() == nil {
		t.Fatal("zero capacity accepted")
	}
	p = IntelX25E()
	p.SeqReadBW = 0
	if p.Validate() == nil {
		t.Fatal("zero bandwidth accepted")
	}
}

func TestDeviceResetStatsKeepsTimeline(t *testing.T) {
	d := NewDevice(Barracuda7200())
	c := d.Read(0, 0, 1<<20)
	d.ResetStats()
	if d.Stats().Reads != 0 {
		t.Fatal("stats not reset")
	}
	if d.BusyUntil() != c.End {
		t.Fatal("timeline reset with stats")
	}
	// Writes and reads still account after reset.
	d.Write(c.End, 0, 4<<10)
	if d.Stats().Writes != 1 {
		t.Fatal("post-reset accounting broken")
	}
}

func TestCompletionLatency(t *testing.T) {
	c := Completion{Start: Time(10 * Millisecond), End: Time(30 * Millisecond)}
	if c.Latency(Time(5*Millisecond)) != 25*Millisecond {
		t.Fatalf("latency = %v", c.Latency(Time(5*Millisecond)))
	}
	if c.String() == "" {
		t.Fatal("empty completion string")
	}
}

func TestHDDNearSeekCheaperThanFar(t *testing.T) {
	d := NewDevice(Barracuda7200())
	// Position the head.
	c := d.Read(0, 100<<20, 4<<10)
	// Near write (same page region): rotation only.
	near := d.Write(c.End, 100<<20, 4<<10)
	// Far write.
	far := d.Write(near.End, 10<<30, 4<<10)
	if near.End.Sub(near.Start) >= far.End.Sub(far.Start) {
		t.Fatalf("near repositioning (%v) not cheaper than far (%v)",
			near.End.Sub(near.Start), far.End.Sub(far.Start))
	}
}

// Latency is the total service time of the request including queueing.
func (c Completion) Latency(issued Time) Duration { return c.End.Sub(issued) }

// Group accumulates completions of asynchronously issued requests and
// reports when all of them have finished: requests on different devices
// proceed on their own timelines and the group completes at the maximum end
// time.
type Group struct {
	end Time
}

// Observe folds one completion into the group.
func (g *Group) Observe(c Completion) { g.end = MaxTime(g.end, c.End) }

// Wait returns the time at which every observed request has completed,
// never earlier than now.
func (g *Group) Wait(now Time) Time { return MaxTime(g.end, now) }
