// Package storage provides byte-addressed volumes that combine real data
// content with the timing model of a simulated device. Every other layer of
// the system performs its I/O through a Volume, so both the data it reads
// and the virtual time it pays are accounted in one place.
//
// The data plane is pluggable (see Backend): the default is an in-memory
// sparse store, and internal/storage/filedev supplies an OS-file backend
// whose writes survive a process restart. The timing plane is always the
// simulated device, so experiments stay machine-independent regardless of
// where the bytes live.
package storage

import (
	"fmt"

	"masm/internal/sim"
)

// Volume is a contiguous byte-addressable region whose data lives on a
// Backend and whose I/O is charged to a simulated device. A Volume is safe
// for concurrent use (as safe as its backend).
type Volume struct {
	dev  *sim.Device
	base int64 // offset of this volume on the device (timing model only)
	size int64
	be   Backend
}

// NewVolume carves a volume of size bytes at offset base on dev, backed by
// fresh in-memory storage.
func NewVolume(dev *sim.Device, base, size int64) (*Volume, error) {
	if size <= 0 {
		return nil, fmt.Errorf("storage: non-positive volume size %d", size)
	}
	return NewVolumeOn(dev, base, NewMemBackend(size))
}

// NewVolumeOn creates a volume over an existing backend (the whole of it),
// charging its I/O at offset base of dev. This is how file-backed volumes
// are built: the backend holds the durable bytes, the device supplies the
// virtual-time cost model.
func NewVolumeOn(dev *sim.Device, base int64, be Backend) (*Volume, error) {
	size := be.Size()
	if base < 0 || size <= 0 || base+size > dev.Params().Capacity {
		return nil, fmt.Errorf("storage: volume [%d,%d) exceeds device %q capacity %d",
			base, base+size, dev.Params().Name, dev.Params().Capacity)
	}
	return &Volume{dev: dev, base: base, size: size, be: be}, nil
}

// Size returns the volume's capacity in bytes.
func (v *Volume) Size() int64 { return v.size }

// Device returns the underlying simulated device.
func (v *Volume) Device() *sim.Device { return v.dev }

// ReadAt reads len(p) bytes at off, issued at virtual time at, and returns
// the request's completion. Unwritten regions read as zero.
func (v *Volume) ReadAt(at sim.Time, p []byte, off int64) (sim.Completion, error) {
	if err := v.check(off, int64(len(p))); err != nil {
		return sim.Completion{}, err
	}
	if err := v.be.ReadAt(p, off); err != nil {
		return sim.Completion{}, err
	}
	return v.dev.Read(at, v.base+off, int64(len(p))), nil
}

// WriteAt writes len(p) bytes at off, issued at virtual time at.
func (v *Volume) WriteAt(at sim.Time, p []byte, off int64) (sim.Completion, error) {
	if err := v.check(off, int64(len(p))); err != nil {
		return sim.Completion{}, err
	}
	if err := v.be.WriteAt(p, off); err != nil {
		return sim.Completion{}, err
	}
	return v.dev.Write(at, v.base+off, int64(len(p))), nil
}

// ChargeRead prices a read of [off, off+n) on the simulated device
// without touching the backend. It is the timing half of a read whose
// data half already happened via PeekAt: recovery's concurrent run
// rebuilds read their bytes unpriced, then charge the recorded spans here
// serially, in exactly the order the inline rebuild would have issued
// them — so the virtual timeline is bit-identical no matter how many
// goroutines moved the bytes.
func (v *Volume) ChargeRead(at sim.Time, off, n int64) (sim.Completion, error) {
	if err := v.check(off, n); err != nil {
		return sim.Completion{}, err
	}
	return v.dev.Read(at, v.base+off, n), nil
}

// PeekAt copies bytes without charging any simulated time: the data half
// of recovery's concurrent run rebuilds (priced afterwards by ChargeRead),
// and tests that inspect raw bytes.
func (v *Volume) PeekAt(p []byte, off int64) error {
	if err := v.check(off, int64(len(p))); err != nil {
		return err
	}
	return v.be.ReadAt(p, off)
}

// PokeAt writes bytes without charging simulated time; the complement of
// PeekAt, used by bulk loaders that model load time separately.
func (v *Volume) PokeAt(p []byte, off int64) error {
	if err := v.check(off, int64(len(p))); err != nil {
		return err
	}
	return v.be.WriteAt(p, off)
}

// Sync forces every completed write down to the backend's durable medium.
// It charges no simulated time: the virtual-time cost model prices data
// transfer, and the paper's experiments assume writes are stable when the
// device acknowledges them.
func (v *Volume) Sync() error { return v.be.Sync() }

// Close releases the backend (closing the file for file-backed volumes).
func (v *Volume) Close() error { return v.be.Close() }

// Slice returns a view of [off, off+size) of the volume as a Volume of its
// own: reads and writes are shifted by off, and the simulated-device
// pricing keeps the parent's base, so a slice at off is priced exactly like
// the same bytes addressed through the parent. A multi-table engine uses
// slices to give each table's heap its own region of one shared data file.
// Closing a slice is a no-op — the parent owns the backend.
func (v *Volume) Slice(off, size int64) (*Volume, error) {
	if err := v.check(off, size); err != nil {
		return nil, err
	}
	if size <= 0 {
		return nil, fmt.Errorf("storage: non-positive slice size %d", size)
	}
	return &Volume{dev: v.dev, base: v.base + off, size: size, be: &sliceBackend{be: v.be, off: off, size: size}}, nil
}

// sliceBackend shifts a window of a parent backend. Close is a no-op: the
// parent volume owns the backend's lifetime.
type sliceBackend struct {
	be   Backend
	off  int64
	size int64
}

func (s *sliceBackend) ReadAt(p []byte, off int64) error  { return s.be.ReadAt(p, s.off+off) }
func (s *sliceBackend) WriteAt(p []byte, off int64) error { return s.be.WriteAt(p, s.off+off) }
func (s *sliceBackend) Size() int64                       { return s.size }
func (s *sliceBackend) Sync() error                       { return s.be.Sync() }
func (s *sliceBackend) Close() error                      { return nil }

func (v *Volume) check(off, length int64) error {
	// Subtraction form: off+length could wrap negative for hostile int64
	// values (e.g. offsets decoded from an untrusted manifest) and slip
	// past an addition-based bound.
	if off < 0 || length < 0 || off > v.size || length > v.size-off {
		return fmt.Errorf("storage: access [%d,+%d) outside volume size %d", off, length, v.size)
	}
	return nil
}
