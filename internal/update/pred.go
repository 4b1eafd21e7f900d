package update

import "sort"

// KeyRange is one inclusive key interval [Lo, Hi].
type KeyRange struct {
	Lo, Hi uint64
}

// Pred is a pushdown predicate over record keys: a normalized (sorted,
// disjoint, non-empty) list of inclusive key ranges. It is the only
// predicate form that may be evaluated below the merge: key membership is
// decidable on every update record in isolation, whereas payload
// predicates cannot be evaluated on partial Modify records and must wait
// until after Merge_updates has produced self-contained rows.
//
// A nil *Pred matches every key.
type Pred struct {
	ranges []KeyRange
}

// NewPred normalizes ranges (dropping inverted ones, sorting, and merging
// overlapping or adjacent intervals) into a Pred. An empty result matches
// nothing; a nil *Pred — not an empty Pred — is "match everything".
func NewPred(ranges []KeyRange) *Pred {
	rs := make([]KeyRange, 0, len(ranges))
	for _, r := range ranges {
		if r.Lo <= r.Hi {
			rs = append(rs, r)
		}
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].Lo < rs[j].Lo })
	out := rs[:0]
	for _, r := range rs {
		if n := len(out); n > 0 && (r.Lo <= out[n-1].Hi || (out[n-1].Hi+1 == r.Lo && out[n-1].Hi != ^uint64(0))) {
			if r.Hi > out[n-1].Hi {
				out[n-1].Hi = r.Hi
			}
			continue
		}
		out = append(out, r)
	}
	return &Pred{ranges: out}
}

// Match reports whether key satisfies the predicate.
func (p *Pred) Match(key uint64) bool {
	if p == nil {
		return true
	}
	rs := p.ranges
	// Binary search only pays past a handful of ranges; predicates are
	// normally 1–4 intervals, so scan linearly first.
	if len(rs) <= 8 {
		for i := range rs {
			if key < rs[i].Lo {
				return false
			}
			if key <= rs[i].Hi {
				return true
			}
		}
		return false
	}
	i := sort.Search(len(rs), func(i int) bool { return rs[i].Hi >= key })
	return i < len(rs) && rs[i].Lo <= key
}

// Overlaps reports whether any predicate range intersects [lo, hi]. Zone
// maps use this to decide whether a granule can contain a matching key.
func (p *Pred) Overlaps(lo, hi uint64) bool {
	if p == nil {
		return true
	}
	rs := p.ranges
	i := sort.Search(len(rs), func(i int) bool { return rs[i].Hi >= lo })
	return i < len(rs) && rs[i].Lo <= hi
}

// Empty reports whether the predicate can match no key at all (normalized
// to zero ranges). A nil Pred is not empty — it matches everything.
func (p *Pred) Empty() bool { return p != nil && len(p.ranges) == 0 }
