// Package query is the streaming query executor over the MaSM merge
// engine: composable relational operators that pull key-ordered rows
// through the batched merge path one at a time, never materializing a
// result set.
//
// Operators follow the janus iterator discipline: every Iterator is
// single-use — once Next returns false or an error, the stream is spent —
// and composition consumes its inputs (an iterator handed to an operator
// must not be read again by the caller).
//
// The hot path is allocation-free per row: Filter, Project and Limit move
// Row values through struct-held state, and projection narrows bodies by
// reslicing, so a pipeline's cost is the scans underneath it (gated by
// TestOperatorZeroAllocs).
package query

// Row is one record of a streaming result: the merged, visible version of
// a key at the query's snapshot. TS is the timestamp of the newest update
// the merge applied (the page timestamp for untouched base rows). Body
// aliases the producing scan's buffer and is valid only until the next
// Next call.
type Row struct {
	Key  uint64
	TS   int64
	Body []byte
}

// Iterator is a single-use pull stream of rows in ascending key order.
type Iterator interface {
	// Next returns the next row, or ok=false at end of stream. After
	// false or an error the iterator is spent.
	Next() (row Row, ok bool, err error)
}

// Pred is a row predicate for Filter. Key, TS and payload conditions are
// all expressible as plain closures.
type Pred func(r *Row) bool

// Filter yields the input rows satisfying pred.
type Filter struct {
	in   Iterator
	pred Pred
	// scratch holds the row while pred inspects it: passing a pointer to
	// a local through a dynamic func makes the row escape (one allocation
	// per call); a struct field escapes once at construction.
	scratch Row
}

// NewFilter builds a Filter over in; it consumes in.
func NewFilter(in Iterator, pred Pred) *Filter { return &Filter{in: in, pred: pred} }

// Next implements Iterator.
func (f *Filter) Next() (Row, bool, error) {
	for {
		r, ok, err := f.in.Next()
		if !ok || err != nil {
			return Row{}, false, err
		}
		f.scratch = r
		if f.pred(&f.scratch) {
			return f.scratch, true, nil
		}
	}
}

// Project narrows every body to width bytes at byte offset off — a
// fixed-width column of a slotted row, the layout the paper's projection
// discussion assumes. Bodies shorter than off+width project to empty.
// The projected body is a reslice: no bytes are copied.
type Project struct {
	in         Iterator
	off, width int
}

// NewProject builds a Project over in; it consumes in.
func NewProject(in Iterator, off, width int) *Project {
	return &Project{in: in, off: off, width: width}
}

// Next implements Iterator.
func (p *Project) Next() (Row, bool, error) {
	r, ok, err := p.in.Next()
	if !ok || err != nil {
		return Row{}, false, err
	}
	if p.off+p.width <= len(r.Body) {
		r.Body = r.Body[p.off : p.off+p.width : p.off+p.width]
	} else {
		r.Body = nil
	}
	return r, true, nil
}

// Limit yields at most n input rows.
type Limit struct {
	in   Iterator
	left int64
}

// NewLimit builds a Limit over in; it consumes in.
func NewLimit(in Iterator, n int64) *Limit { return &Limit{in: in, left: n} }

// Next implements Iterator.
func (l *Limit) Next() (Row, bool, error) {
	if l.left <= 0 {
		return Row{}, false, nil
	}
	r, ok, err := l.in.Next()
	if !ok || err != nil {
		return Row{}, false, err
	}
	l.left--
	return r, true, nil
}
