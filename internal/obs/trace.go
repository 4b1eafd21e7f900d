package obs

import "sync"

// Event is one lifecycle trace point: a flush, merge, migration phase,
// recovery step or checkpoint. VirtualNanos carries the engine's
// simulated clock when the event fired (0 when the caller has no
// timeline in scope), so a migration or recovery can be reconstructed
// in timeline order after the fact.
type Event struct {
	Seq          int64  `json:"seq"`
	Op           string `json:"op"`               // flush | merge | migration | recovery | checkpoint
	Table        string `json:"table,omitempty"`  // owning table, when per-table
	Phase        string `json:"phase,omitempty"`  // begin | end | sort | shadow-write | ...
	Detail       string `json:"detail,omitempty"` // free-form: counts, byte sizes
	VirtualNanos int64  `json:"vnanos,omitempty"`
}

// Sink receives every event as it is emitted (in addition to the ring).
// Emit is called with the tracer's lock held, so sinks must be fast and
// must not call back into the tracer.
type Sink interface {
	Emit(Event)
}

// Tracer records lifecycle events into a bounded in-memory ring,
// optionally teeing them to a pluggable sink. It is deliberately not on
// any per-record hot path: only lifecycle operations (a handful per
// second at most) emit, so a mutex is fine here. A nil Tracer is a
// no-op.
type Tracer struct {
	mu   sync.Mutex
	seq  int64
	ring []Event
	next int
	full bool
	sink Sink
}

// DefaultTraceRing is the ring capacity NewTracer(0) uses.
const DefaultTraceRing = 1024

// NewTracer returns a tracer whose ring holds capacity events (the
// oldest are overwritten once full). capacity ≤ 0 selects
// DefaultTraceRing.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceRing
	}
	return &Tracer{ring: make([]Event, capacity)}
}

// SetSink installs (or, with nil, removes) the tee sink.
func (t *Tracer) SetSink(s Sink) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sink = s
}

// Emit records one event, stamping its sequence number.
func (t *Tracer) Emit(op, table, phase, detail string, vnanos int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	e := Event{Seq: t.seq, Op: op, Table: table, Phase: phase, Detail: detail, VirtualNanos: vnanos}
	t.ring[t.next] = e
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.full = true
	}
	if t.sink != nil {
		t.sink.Emit(e)
	}
}

// Events returns the ring's contents, oldest first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Event
	if t.full {
		out = append(out, t.ring[t.next:]...)
	}
	out = append(out, t.ring[:t.next]...)
	return out
}
