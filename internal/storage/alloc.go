package storage

import (
	"fmt"
	"sync"

	"masm/internal/sim"
)

// Arena hands out non-overlapping volumes from a device, front to back.
// It is the minimal "partition table" the prototype needs: the main data
// file, the update-cache runs, and the log each get their own volume.
type Arena struct {
	mu   sync.Mutex
	dev  *sim.Device
	next int64
}

// NewArena creates an allocator over the whole device.
func NewArena(dev *sim.Device) *Arena {
	return &Arena{dev: dev}
}

// Alloc carves the next size bytes into a fresh volume.
func (a *Arena) Alloc(size int64) (*Volume, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	v, err := NewVolume(a.dev, a.next, size)
	if err != nil {
		return nil, fmt.Errorf("storage: arena alloc %d bytes at %d: %w", size, a.next, err)
	}
	a.next += size
	return v, nil
}

// SequentialWriter appends fixed-position writes to a volume, tracking the
// write cursor and the virtual time of the last completion. MaSM's
// materialized sorted runs are produced exclusively through this type,
// which is how the implementation guarantees design goal 2 (no random SSD
// writes): every write continues the previous one.
type SequentialWriter struct {
	vol *Volume
	off int64
	now sim.Time
}

// NewSequentialWriter starts writing at off with local time at.
func NewSequentialWriter(vol *Volume, off int64, at sim.Time) *SequentialWriter {
	return &SequentialWriter{vol: vol, off: off, now: at}
}

// Write appends p and advances the cursor and local clock.
func (w *SequentialWriter) Write(p []byte) (sim.Completion, error) {
	c, err := w.vol.WriteAt(w.now, p, w.off)
	if err != nil {
		return sim.Completion{}, err
	}
	w.off += int64(len(p))
	w.now = c.End
	return c, nil
}

// Time returns the writer's local time (completion of the last write).
func (w *SequentialWriter) Time() sim.Time { return w.now }
