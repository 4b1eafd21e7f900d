// Package obs is the engine's observability substrate: a registry of
// atomic counters, gauges and fixed-bucket histograms, a bounded
// lifecycle-event tracer, a Prometheus text-format encoder and an
// optional HTTP exposition endpoint.
//
// The design splits every metric into a cold registration path and a hot
// update path. Registration (Registry.Counter / Gauge / Histogram) takes
// a mutex, canonicalizes labels and interns the metric; it happens once,
// at store/engine construction. The handles it returns are plain structs
// around atomic words: Counter.Add, Gauge.Set and Histogram.Observe are
// single atomic operations on pre-resolved pointers — no map lookups, no
// locks, and zero heap allocations, which the AllocsPerRun gates in this
// package's tests enforce. That is what lets the simulated-time
// experiment plane stay bit-identical with instrumentation compiled in:
// metric updates never issue I/O, never take a lock another path could
// contend on, and never touch the virtual clock.
//
// All hot-path update methods are nil-receiver safe (a nil Counter's Add
// is a no-op), so optional instrumentation points don't need guards.
package obs

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key/value dimension attached to a metric, e.g.
// {Key: "table", Value: "orders"}.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// MetricType discriminates the snapshot entries.
type MetricType string

const (
	TypeCounter   MetricType = "counter"
	TypeGauge     MetricType = "gauge"
	TypeHistogram MetricType = "histogram"
)

// Counter is a monotonically increasing value. The zero value is usable;
// a nil receiver is a no-op.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can move both ways (cache fill, run count). The
// zero value is usable; a nil receiver is a no-op.
type Gauge struct{ v atomic.Int64 }

// Set stores an absolute value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value reads the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// entry is one registered metric: identity plus the live handle.
type entry struct {
	name   string
	labels []Label
	typ    MetricType
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry owns a set of named metrics. Registration is idempotent: the
// same (name, labels) pair always returns the same handle, so restores
// and re-registrations accumulate into one series. Safe for concurrent
// use; only registration and snapshotting lock.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// canonLabels returns labels sorted by key (copying, never mutating the
// caller's slice).
func canonLabels(labels []Label) []Label {
	if len(labels) == 0 {
		return nil
	}
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// seriesKey builds the canonical identity string for (name, labels).
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte(0xff)
		b.WriteString(l.Key)
		b.WriteByte(0xfe)
		b.WriteString(l.Value)
	}
	return b.String()
}

// lookup interns the entry for (name, labels), creating it with mk when
// absent, and panics on a type conflict — re-registering one series under
// two types is a programming error, not a runtime condition.
func (r *Registry) lookup(name string, typ MetricType, labels []Label, mk func(*entry)) *entry {
	canon := canonLabels(labels)
	key := seriesKey(name, canon)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.entries == nil {
		r.entries = make(map[string]*entry)
	}
	if e, ok := r.entries[key]; ok {
		if e.typ != typ {
			panic("obs: metric " + name + " re-registered as " + string(typ) + ", was " + string(e.typ))
		}
		return e
	}
	e := &entry{name: name, labels: canon, typ: typ}
	mk(e)
	r.entries[key] = e
	return e
}

// Counter returns (registering if needed) the counter for (name, labels).
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, TypeCounter, labels, func(e *entry) { e.c = new(Counter) }).c
}

// Gauge returns (registering if needed) the gauge for (name, labels).
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, TypeGauge, labels, func(e *entry) { e.g = new(Gauge) }).g
}

// Histogram returns (registering if needed) the histogram for
// (name, labels).
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, TypeHistogram, labels, func(e *entry) { e.h = new(Histogram) }).h
}

// Unregister removes every metric carrying the given label (key and
// value both matching). DropTable uses it to retire a departed table's
// series so tenant churn cannot leak registry entries.
func (r *Registry) Unregister(match Label) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for key, e := range r.entries {
		for _, l := range e.labels {
			if l == match {
				delete(r.entries, key)
				n++
				break
			}
		}
	}
	return n
}
