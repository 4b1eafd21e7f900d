package storage

import "sync"

// The buffer pool serves the I/O-heavy paths (migration batches, WAL
// replay chunks, run rebuild windows, page encodes) so they stop
// re-allocating megabyte-scale scratch on every batch.

// bufClasses are the pooled size classes: powers of two from 4 KiB
// (one page) to 16 MiB (largest migration batch window). Requests above
// the largest class allocate directly and are not pooled.
var bufClasses = func() []int {
	var cs []int
	for n := 4 << 10; n <= 16<<20; n <<= 1 {
		cs = append(cs, n)
	}
	return cs
}()

// The class pools hold *[]byte rather than []byte: boxing a slice header
// into an interface allocates. The boxes themselves circulate through
// bufBoxes — GetBuf empties a box into it, PutBuf fills one from it — so
// a Get/Put round trip allocates nothing.
var (
	bufPools = func() []*sync.Pool {
		ps := make([]*sync.Pool, len(bufClasses))
		for i, n := range bufClasses {
			ps[i] = &sync.Pool{New: func() any {
				b := make([]byte, n)
				return &b
			}}
		}
		return ps
	}()
	bufBoxes = sync.Pool{New: func() any { return new([]byte) }}
)

// classFor returns the pool index for a request of n bytes, or -1 when n
// exceeds the largest class.
func classFor(n int) int {
	for i, c := range bufClasses {
		if n <= c {
			return i
		}
	}
	return -1
}

// GetBuf returns a zero-length buffer with capacity at least n, drawn
// from the pool. The contents of the backing array are unspecified
// (recycled buffers keep old bytes); callers append or slice and
// overwrite. Release with PutBuf.
func GetBuf(n int) []byte {
	ci := classFor(max(n, 1))
	if ci < 0 {
		return make([]byte, 0, n)
	}
	box := bufPools[ci].Get().(*[]byte)
	b := *box
	*box = nil
	bufBoxes.Put(box)
	return b[:0]
}

// PutBuf returns a buffer to the pool; the caller must not touch it
// afterwards. Only exact class-capacity buffers re-enter the pool;
// anything else (oversize one-offs, resliced views, nil) is left to the GC.
func PutBuf(p []byte) {
	c := cap(p)
	for i, n := range bufClasses {
		if c == n {
			box := bufBoxes.Get().(*[]byte)
			*box = p[:n]
			bufPools[i].Put(box)
			return
		}
	}
}
