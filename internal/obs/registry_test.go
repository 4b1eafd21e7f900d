package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestRegistryIdempotent: the same (name, labels) pair resolves to the
// same handle regardless of label order, so restores re-attach to the
// running series.
func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x", L("table", "t1"), L("shard", "0"))
	b := r.Counter("x", L("shard", "0"), L("table", "t1"))
	if a != b {
		t.Fatalf("same series resolved to distinct handles")
	}
	if c := r.Counter("x", L("table", "t2"), L("shard", "0")); c == a {
		t.Fatalf("distinct label sets shared a handle")
	}
	if len(r.entries) != 2 {
		t.Fatalf("%d series registered, want 2", len(r.entries))
	}
}

// TestRegistryTypeConflict: one series under two types is a programming
// error and must panic loudly, not silently alias.
func TestRegistryTypeConflict(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on type conflict")
		}
	}()
	r.Gauge("x")
}

// TestConcurrentIncrements: hammer one counter, one gauge and one
// histogram from many goroutines; totals must be exact. Run under -race
// this also proves the hot path is data-race free.
func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits")
	g := r.Gauge("level")
	h := r.Histogram("lat")
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(seed + int64(i))
			}
		}(int64(w))
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := g.Value(); got != workers*per {
		t.Fatalf("gauge = %d, want %d", got, workers*per)
	}
	if got := h.snapshot().Count; got != workers*per {
		t.Fatalf("histogram count = %d, want %d", got, workers*per)
	}
}

// TestNilReceiversSafe: every hot-path update is a no-op on nil, so
// optional instrumentation points need no guards.
func TestNilReceiversSafe(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var tr *Tracer
	var r *Registry
	c.Add(1)
	c.Inc()
	g.Set(5)
	g.Add(-1)
	h.Observe(7)
	tr.Emit("flush", "t", "end", "", 0)
	if c.Value() != 0 || g.Value() != 0 || r.Counter("x") != nil {
		t.Fatalf("nil receivers must read as zero")
	}
	if got := r.Snapshot(); len(got.Metrics) != 0 {
		t.Fatalf("nil registry snapshot non-empty")
	}
}

// TestHistogramBucketBoundaries sweeps values across every boundary the
// layout has below 2^20 plus the extremes, asserting the index is
// monotone and each value falls inside [prev upper+1, upper].
func TestHistogramBucketBoundaries(t *testing.T) {
	check := func(v int64) {
		b := bucketOf(v)
		if b < 0 || b >= histBuckets {
			t.Fatalf("bucketOf(%d) = %d out of range", v, b)
		}
		up := bucketUpper(b)
		if v > up {
			t.Fatalf("value %d above its bucket %d upper %d", v, b, up)
		}
		if b > 0 && v <= bucketUpper(b-1) {
			t.Fatalf("value %d not above previous bucket upper %d", v, bucketUpper(b-1))
		}
	}
	prev := -1
	for v := int64(0); v < 1<<20; v++ {
		b := bucketOf(v)
		if b < prev {
			t.Fatalf("bucket index regressed at %d: %d < %d", v, b, prev)
		}
		prev = b
	}
	for exp := uint(2); exp < 63; exp++ {
		for _, v := range []int64{1<<exp - 1, 1 << exp, 1<<exp + 1} {
			check(v)
		}
	}
	check(int64(1)<<62 + 12345)
	check(1<<63 - 1)
	// Contiguity: each bucket starts right after the previous one ends,
	// up to the last bucket any int64 can reach (the rest is padding).
	for i := 1; i <= bucketOf(1<<63-1); i++ {
		if bucketUpper(i-1) >= bucketUpper(i) {
			t.Fatalf("bucket uppers not strictly increasing at %d", i)
		}
	}
	// Negative observations clamp to the zero bucket.
	h := new(Histogram)
	h.Observe(-5)
	if s := h.snapshot(); s.Count != 1 || s.Buckets[0].Upper != 0 {
		t.Fatalf("negative observation not clamped: %+v", s)
	}
}

// TestHistogramQuantile: quantiles of a uniform 1..N distribution land
// within one sub-bucket (25% relative error) of the truth.
func TestHistogramQuantile(t *testing.T) {
	h := new(Histogram)
	const n = 1000
	var sum int64
	for v := int64(1); v <= n; v++ {
		h.Observe(v)
		sum += v
	}
	s := h.snapshot()
	if s.Count != n || s.Sum != sum {
		t.Fatalf("count/sum = %d/%d, want %d/%d", s.Count, s.Sum, n, sum)
	}
	for _, tc := range []struct {
		q    float64
		want int64
	}{{0.5, 500}, {0.9, 900}, {0.99, 990}, {1.0, 1000}} {
		got := s.Quantile(tc.q)
		if got < tc.want || float64(got) > float64(tc.want)*1.3 {
			t.Fatalf("q%.2f = %d, want within [%d, %d]", tc.q, got, tc.want, int64(float64(tc.want)*1.3))
		}
	}
	if (&HistSnapshot{}).Quantile(0.5) != 0 {
		t.Fatalf("empty quantile should be 0")
	}
}

// TestSnapshotConsistency: a snapshot carries exactly the registered
// series, sorted deterministically, with lookups returning what was
// written; Unregister removes a table's series and nothing else.
func TestSnapshotConsistency(t *testing.T) {
	r := NewRegistry()
	r.Counter("updates", L("table", "a")).Add(3)
	r.Counter("updates", L("table", "b")).Add(5)
	r.Gauge("fill", L("table", "a")).Set(42)
	r.Histogram("lat").Observe(100)

	s := r.Snapshot()
	if len(s.Metrics) != 4 {
		t.Fatalf("snapshot has %d series, want 4", len(s.Metrics))
	}
	for i := 1; i < len(s.Metrics); i++ {
		ki := seriesKey(s.Metrics[i-1].Name, s.Metrics[i-1].Labels)
		kj := seriesKey(s.Metrics[i].Name, s.Metrics[i].Labels)
		if ki >= kj {
			t.Fatalf("snapshot not sorted: %q before %q", ki, kj)
		}
	}
	if got := s.Counter("updates", L("table", "a")); got != 3 {
		t.Fatalf("counter a = %d, want 3", got)
	}
	if got := s.Gauge("fill", L("table", "a")); got != 42 {
		t.Fatalf("gauge = %d, want 42", got)
	}
	if hs := s.Histogram("lat"); hs == nil || hs.Count != 1 {
		t.Fatalf("histogram lookup failed: %+v", hs)
	}
	if _, ok := s.Get("updates", L("table", "zz")); ok {
		t.Fatalf("lookup of absent series succeeded")
	}

	if n := r.Unregister(L("table", "a")); n != 2 {
		t.Fatalf("Unregister removed %d series, want 2", n)
	}
	s = r.Snapshot()
	if len(s.Metrics) != 2 {
		t.Fatalf("after unregister: %d series, want 2", len(s.Metrics))
	}
	if got := s.Counter("updates", L("table", "b")); got != 5 {
		t.Fatalf("unrelated series disturbed: %d", got)
	}
}

// TestTracerSink: the sink sees every emit in order with a gapless
// sequence, and events emitted while no sink is installed still take
// their sequence numbers.
func TestTracerSink(t *testing.T) {
	tr := NewTracer()
	tr.Emit("flush", "t", "end", "", 0) // no sink: dropped, numbered 1
	var sunk []Event
	tr.SetSink(SinkFunc(func(e Event) { sunk = append(sunk, e) }))
	for i := 0; i < 10; i++ {
		tr.Emit("flush", "t", "end", "", int64(i))
	}
	if len(sunk) != 10 {
		t.Fatalf("sink saw %d events, want 10", len(sunk))
	}
	for i, e := range sunk {
		if e.Seq != int64(2+i) || e.VirtualNanos != int64(i) {
			t.Fatalf("event %d: seq %d vnanos %d, want seq %d vnanos %d", i, e.Seq, e.VirtualNanos, 2+i, i)
		}
	}
	tr.SetSink(nil)
	tr.Emit("flush", "t", "end", "", 0)
	if len(sunk) != 10 {
		t.Fatalf("detached sink saw %d events, want 10", len(sunk))
	}
}

// TestWritePrometheus: spot-check the text exposition format, including
// cumulative histogram buckets and the +Inf terminator.
func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("updates", L("table", "a")).Add(7)
	r.Gauge("fill").Set(9)
	h := r.Histogram("lat")
	h.Observe(1)
	h.Observe(1)
	h.Observe(100)

	var b strings.Builder
	if err := WritePrometheus(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE updates counter",
		`updates{table="a"} 7`,
		"# TYPE fill gauge",
		"fill 9",
		"# TYPE lat histogram",
		`lat_bucket{le="1"} 2`,
		`lat_bucket{le="+Inf"} 3`,
		"lat_sum 102",
		"lat_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Buckets must be cumulative: the 100-observation bucket reads 3.
	hs := r.Snapshot().Histogram("lat")
	up := bucketUpper(bucketOf(100))
	if !strings.Contains(out, `lat_bucket{le="`+itoa(up)+`"} 3`) {
		t.Fatalf("cumulative bucket for 100 missing (upper %d, hist %+v):\n%s", up, hs, out)
	}
}

func itoa(v int64) string {
	var b strings.Builder
	if v == 0 {
		return "0"
	}
	var digits []byte
	for v > 0 {
		digits = append(digits, byte('0'+v%10))
		v /= 10
	}
	for i := len(digits) - 1; i >= 0; i-- {
		b.WriteByte(digits[i])
	}
	return b.String()
}

// TestAllocsPerRunHotPath gates the zero-allocation guarantee: counter
// adds, gauge sets and histogram observes on the hot path allocate
// nothing.
func TestAllocsPerRunHotPath(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments atomics with allocations")
	}
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	var i int64
	if n := testing.AllocsPerRun(10000, func() { c.Add(1) }); n != 0 {
		t.Fatalf("Counter.Add allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(10000, func() { g.Set(i); g.Add(1); i++ }); n != 0 {
		t.Fatalf("Gauge.Set/Add allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(10000, func() { h.Observe(i); i += 37 }); n != 0 {
		t.Fatalf("Histogram.Observe allocates %v/op", n)
	}
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Event)

// Emit implements Sink.
func (f SinkFunc) Emit(e Event) { f(e) }
