package storage

import "sync"

// Backend is the data plane of a volume: real bytes at real offsets. The
// timing model (the simulated device) is orthogonal — a Volume pairs one
// Backend with one sim.Device, so the same engine code runs over purely
// in-memory state (benchmarks, deterministic experiments) or over real OS
// files that survive a process restart (see internal/storage/filedev).
//
// Offsets are volume-relative: a Backend always spans exactly [0, Size()).
// Implementations must be safe for concurrent use.
type Backend interface {
	// ReadAt fills p with the bytes at off. Regions never written read as
	// zero. A short read is an error.
	ReadAt(p []byte, off int64) error
	// WriteAt stores p at off.
	WriteAt(p []byte, off int64) error
	// Sync is a durability barrier: when it returns, every completed
	// WriteAt survives a crash of the process (and, for real devices, of
	// the machine). In-memory backends treat it as a no-op.
	Sync() error
	// Close releases the backend's resources. The in-memory backend keeps
	// its content (tests reopen volumes over it); file backends close the
	// underlying descriptor.
	Close() error
	// Size reports the backend's capacity in bytes.
	Size() int64
}

// memChunkSize is the granularity of sparse allocation. One megabyte keeps
// the map small for multi-gigabyte volumes while wasting little on small
// ones.
const memChunkSize = 1 << 20

// MemBackend is the in-memory Backend: sparsely allocated chunks, zero-fill
// reads, no durability (Sync and Close are no-ops). It is the storage the
// simulation-only configurations run on.
type MemBackend struct {
	size int64

	mu     sync.RWMutex
	chunks map[int64][]byte
}

// NewMemBackend creates an empty in-memory backend of the given size.
func NewMemBackend(size int64) *MemBackend {
	return &MemBackend{size: size, chunks: make(map[int64][]byte)}
}

// Size implements Backend.
func (m *MemBackend) Size() int64 { return m.size }

// Sync implements Backend; memory has no durability to force.
func (m *MemBackend) Sync() error { return nil }

// Close implements Backend; the content is retained so a crash-recovery
// test can reopen a volume over the same backend.
func (m *MemBackend) Close() error { return nil }

// ReadAt implements Backend.
func (m *MemBackend) ReadAt(p []byte, off int64) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for n := int64(0); n < int64(len(p)); {
		c := (off + n) / memChunkSize
		co := (off + n) % memChunkSize
		span := min(memChunkSize-co, int64(len(p))-n)
		if chunk, ok := m.chunks[c]; ok {
			copy(p[n:n+span], chunk[co:co+span])
		} else {
			for i := n; i < n+span; i++ {
				p[i] = 0
			}
		}
		n += span
	}
	return nil
}

// WriteAt implements Backend.
func (m *MemBackend) WriteAt(p []byte, off int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for n := int64(0); n < int64(len(p)); {
		c := (off + n) / memChunkSize
		co := (off + n) % memChunkSize
		span := min(memChunkSize-co, int64(len(p))-n)
		chunk, ok := m.chunks[c]
		if !ok {
			chunk = make([]byte, memChunkSize)
			m.chunks[c] = chunk
		}
		copy(chunk[co:co+span], p[n:n+span])
		n += span
	}
	return nil
}
