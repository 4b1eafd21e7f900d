package masm

// Streaming query facade: predicated, projected range queries over the
// MaSM merge engine. A QuerySpec describes the query's shape; the engine
// pushes the key predicate below the merge (zone maps prune whole run
// granules and data pages before their reads are issued, and surviving
// scans filter records before they enter the merge), narrows bodies with
// the projection, and pushes each row through the projection, filter and
// limit callbacks into the caller's without materializing a result.

import (
	"fmt"

	"masm/internal/update"
)

// KeyRange is one inclusive key interval of a query predicate.
type KeyRange struct {
	Lo, Hi uint64
}

// Projection selects a fixed-width column: Width body bytes at byte
// offset Off. Rows whose body is shorter yield an empty body.
type Projection struct {
	Off, Width int
}

// QuerySpec is the shape of a streaming query. The zero value of each
// field means "off": no key predicate scans [Begin, End] entirely, nil
// Project returns whole bodies, nil Filter keeps every row, zero Limit
// is unlimited.
type QuerySpec struct {
	// Begin, End bound the scan (inclusive). They are required: the
	// all-keys scan is spelled Begin 0, End ^uint64(0), exactly like Scan.
	Begin, End uint64
	// KeyRanges is the pushdown predicate: only keys inside one of the
	// (possibly overlapping, unsorted) ranges are returned. The engine
	// normalizes them and prunes run granules and data pages whose key
	// spans cannot match — their device reads are never issued.
	KeyRanges []KeyRange
	// Project narrows every returned body to one fixed-width column.
	Project *Projection
	// Filter is an arbitrary post-merge row predicate, applied after
	// projection. It cannot be pushed below the merge (it sees merged
	// bodies), so it prunes nothing — express key conditions in
	// KeyRanges instead.
	Filter func(key uint64, body []byte) bool
	// Limit stops the query after this many rows (0 = unlimited). The
	// scan stops at the limit's last row, so unread granules cost nothing.
	Limit int64
}

// pred builds the normalized pushdown predicate, or nil when the spec has
// no key ranges.
func (spec *QuerySpec) pred() *update.Pred {
	if len(spec.KeyRanges) == 0 {
		return nil
	}
	ranges := make([]update.KeyRange, len(spec.KeyRanges))
	for i, r := range spec.KeyRanges {
		ranges[i] = update.KeyRange{Lo: r.Lo, Hi: r.Hi}
	}
	return update.NewPred(ranges)
}

// Query streams the table rows matching spec into fn, in key order,
// under snapshot isolation (one timestamp for the whole query, exactly
// like Scan). fn returning false stops early. body is valid only until fn
// returns, as in Scan, folded rows included (a modified row's body is the
// query's scratch): copy it to keep it. See QuerySpec for the pushdown
// contract.
func (t *Table) Query(spec QuerySpec, fn func(key uint64, body []byte) bool) error {
	if spec.Begin > spec.End {
		return fmt.Errorf("masm: query begin %d > end %d", spec.Begin, spec.End)
	}
	pred := spec.pred()
	if pred != nil && pred.Empty() {
		return nil // normalized predicate matches nothing
	}
	e := t.eng
	e.mu.RLock()
	if err := t.liveLocked(); err != nil {
		e.mu.RUnlock()
		return err
	}
	q, err := t.store.NewQuery(e.clock.now(), spec.Begin, spec.End, pred)
	e.mu.RUnlock()
	if err != nil {
		return err
	}
	return e.drainQuery(q, spec.pipeline(fn))
}

// pipeline composes the operators above the merge as callbacks around fn:
// each row is projected, then filtered, then counted against the limit.
// The returned function is the one Query.Each calls per row; projection
// narrows a body by reslicing, so the pipeline copies nothing.
func (spec *QuerySpec) pipeline(fn func(key uint64, body []byte) bool) func(key uint64, body []byte) bool {
	if spec.Limit > 0 {
		left, inner := spec.Limit, fn
		fn = func(k uint64, b []byte) bool {
			left--
			return inner(k, b) && left > 0
		}
	}
	if spec.Filter != nil {
		keep, inner := spec.Filter, fn
		fn = func(k uint64, b []byte) bool { return !keep(k, b) || inner(k, b) }
	}
	if p := spec.Project; p != nil {
		off, end, inner := p.Off, p.Off+p.Width, fn
		fn = func(k uint64, b []byte) bool {
			if end <= len(b) {
				return inner(k, b[off:end:end])
			}
			return inner(k, nil)
		}
	}
	return fn
}
