package masm

import "sync/atomic"

// Oracle hands out the monotonically increasing timestamps that order all
// updates, queries, flushes and migrations (paper §3.2: "the timestamp
// order defines a total serial order"). Timestamps start at 1 so that 0
// can mean "never updated" in page headers.
type Oracle struct {
	last atomic.Int64
}

// Next returns a fresh timestamp, strictly larger than all previous ones.
func (o *Oracle) Next() int64 { return o.last.Add(1) }

// AdvanceTo raises the oracle to at least ts; used by crash recovery to
// resume after the largest logged timestamp.
func (o *Oracle) AdvanceTo(ts int64) {
	for {
		cur := o.last.Load()
		if cur >= ts || o.last.CompareAndSwap(cur, ts) {
			return
		}
	}
}
