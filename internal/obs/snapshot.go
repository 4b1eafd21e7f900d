package obs

import "sort"

// Metric is one series in a snapshot.
type Metric struct {
	Name   string        `json:"name"`
	Labels []Label       `json:"labels,omitempty"`
	Type   MetricType    `json:"type"`
	Value  int64         `json:"value,omitempty"` // counters and gauges
	Hist   *HistSnapshot `json:"hist,omitempty"`  // histograms
}

// Snapshot is a point-in-time copy of a registry, sorted by name then
// labels so the same state always serializes identically.
type Snapshot struct {
	Metrics []Metric `json:"metrics"`
}

// Snapshot captures every registered series.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	entries := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.mu.Unlock()

	var s Snapshot
	s.Metrics = make([]Metric, 0, len(entries))
	for _, e := range entries {
		m := Metric{Name: e.name, Labels: e.labels, Type: e.typ}
		switch e.typ {
		case TypeCounter:
			m.Value = e.c.Value()
		case TypeGauge:
			m.Value = e.g.Value()
		case TypeHistogram:
			m.Hist = e.h.snapshot()
		}
		s.Metrics = append(s.Metrics, m)
	}
	sort.Slice(s.Metrics, func(i, j int) bool {
		return seriesKey(s.Metrics[i].Name, s.Metrics[i].Labels) <
			seriesKey(s.Metrics[j].Name, s.Metrics[j].Labels)
	})
	return s
}

// labelsMatch reports whether a series' canonical labels equal the
// (canonicalized) query labels exactly.
func labelsMatch(have, want []Label) bool {
	if len(have) != len(want) {
		return false
	}
	for i := range have {
		if have[i] != want[i] {
			return false
		}
	}
	return true
}

// Get returns the series with exactly the given name and labels, if
// present.
func (s Snapshot) Get(name string, labels ...Label) (Metric, bool) {
	want := canonLabels(labels)
	for i := range s.Metrics {
		if s.Metrics[i].Name == name && labelsMatch(s.Metrics[i].Labels, want) {
			return s.Metrics[i], true
		}
	}
	return Metric{}, false
}

// Counter returns the value of a counter series (0 when absent).
func (s Snapshot) Counter(name string, labels ...Label) int64 {
	if m, ok := s.Get(name, labels...); ok && m.Type == TypeCounter {
		return m.Value
	}
	return 0
}

// Gauge returns the value of a gauge series (0 when absent).
func (s Snapshot) Gauge(name string, labels ...Label) int64 {
	if m, ok := s.Get(name, labels...); ok && m.Type == TypeGauge {
		return m.Value
	}
	return 0
}

// Histogram returns a histogram series' snapshot (nil when absent).
func (s Snapshot) Histogram(name string, labels ...Label) *HistSnapshot {
	if m, ok := s.Get(name, labels...); ok && m.Type == TypeHistogram {
		return m.Hist
	}
	return nil
}
