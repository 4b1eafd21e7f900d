package obs

import "sync"

// Event is one lifecycle trace point: a flush, merge or migration phase.
// VirtualNanos carries the engine's simulated clock when the event fired
// (0 when the caller has no timeline in scope), so a migration can be
// reconstructed in timeline order after the fact.
type Event struct {
	Seq          int64  `json:"seq"`
	Op           string `json:"op"`               // flush | merge | migration
	Table        string `json:"table,omitempty"`  // owning table, when per-table
	Phase        string `json:"phase,omitempty"`  // begin | end
	Detail       string `json:"detail,omitempty"` // free-form: counts, byte sizes
	VirtualNanos int64  `json:"vnanos,omitempty"`
}

// Sink receives every event as it is emitted. Emit is called with the
// tracer's lock held, so sinks must be fast and must not call back into
// the tracer.
type Sink interface {
	Emit(Event)
}

// Tracer numbers lifecycle events and hands each to a pluggable sink;
// with no sink an event is dropped. It is deliberately not on any
// per-record hot path: only lifecycle operations (a handful per second at
// most) emit, so a mutex is fine here. A nil Tracer is a no-op.
type Tracer struct {
	mu   sync.Mutex
	seq  int64
	sink Sink
}

// NewTracer returns a tracer with no sink.
func NewTracer() *Tracer { return &Tracer{} }

// SetSink installs (or, with nil, removes) the sink.
func (t *Tracer) SetSink(s Sink) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sink = s
}

// Emit stamps one event with the next sequence number and hands it to the
// sink.
func (t *Tracer) Emit(op, table, phase, detail string, vnanos int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	if t.sink != nil {
		t.sink.Emit(Event{Seq: t.seq, Op: op, Table: table, Phase: phase, Detail: detail, VirtualNanos: vnanos})
	}
}
