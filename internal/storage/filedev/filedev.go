// Package filedev implements the OS-file storage backend: a
// storage.Backend whose bytes live in a real file, written with
// pwrite/pread and made durable with fsync. It is the persistence layer
// behind masm.OpenEngineDir — the point where the MaSM prototype stops being a
// pure simulation and acquires state that survives a process restart.
//
// A File is a fixed-capacity region: it is created (or extended) to its
// full logical size up front with truncate, so the file is sparse on disk,
// reads inside the region always succeed, and unwritten bytes read as zero
// — the same semantics the in-memory backend provides.
//
// I/O goes through raw pread/pwrite loops rather than os.File.ReadAt:
// the kernel may return short counts (signals, RLIMIT_FSIZE, quirky
// filesystems), and a short write that silently drops bytes corrupts a
// run file, so both directions loop until the request is full and retry
// EINTR. Every file is opened one way — one buffered descriptor that
// serves reads, writes and fsync — so no request depends on the
// alignment of the caller's buffer.
package filedev

import (
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"syscall"

	"masm/internal/storage"
)

// ioChunkLimit, when positive, caps the byte count of every individual
// pread/pwrite syscall. It exists so tests can force the kernel-visible
// short-read/short-write behavior deterministically and prove the I/O
// loops recover; production code leaves it at zero.
var ioChunkLimit atomic.Int64

// setIOChunkLimit installs a per-syscall byte cap and returns a restore
// function. Test-only.
func setIOChunkLimit(n int) (restore func()) {
	prev := ioChunkLimit.Swap(int64(n))
	return func() { ioChunkLimit.Store(prev) }
}

// File is a file-backed storage.Backend. It is safe for concurrent use:
// ReadAt/WriteAt map to pread/pwrite, which the OS serializes per byte
// range, and the engine above never issues overlapping writes.
type File struct {
	f    *os.File
	path string
	size int64
}

var _ storage.Backend = (*File)(nil)

// Open opens (creating if absent) the file at path as a backend of the
// given capacity. An existing file keeps its content; a shorter file is
// extended with a hole so the full capacity is readable. An existing file
// larger than size is rejected: it belongs to a layout with a different
// geometry.
func Open(path string, size int64) (*File, error) {
	if size <= 0 {
		return nil, fmt.Errorf("filedev: non-positive size %d for %s", size, path)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() > size {
		f.Close()
		return nil, fmt.Errorf("filedev: %s is %d bytes, larger than the expected capacity %d",
			path, st.Size(), size)
	}
	if st.Size() < size {
		if err := f.Truncate(size); err != nil {
			f.Close()
			return nil, fmt.Errorf("filedev: extend %s to %d bytes: %w", path, size, err)
		}
	}
	return &File{f: f, path: path, size: size}, nil
}

// Size implements storage.Backend.
func (d *File) Size() int64 { return d.size }

// pread fills p from off, looping over short counts and EINTR. It
// returns the bytes read and io.EOF if the file ends before p is full.
func pread(fd int, p []byte, off int64) (int, error) {
	total := 0
	for total < len(p) {
		chunk := p[total:]
		if lim := int(ioChunkLimit.Load()); lim > 0 && len(chunk) > lim {
			chunk = chunk[:lim]
		}
		n, err := syscall.Pread(fd, chunk, off+int64(total))
		if n > 0 {
			total += n
		}
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return total, err
		}
		if n == 0 {
			return total, io.EOF
		}
	}
	return total, nil
}

// pwrite writes all of p at off, looping over short counts and EINTR.
func pwrite(fd int, p []byte, off int64) error {
	total := 0
	for total < len(p) {
		chunk := p[total:]
		if lim := int(ioChunkLimit.Load()); lim > 0 && len(chunk) > lim {
			chunk = chunk[:lim]
		}
		n, err := syscall.Pwrite(fd, chunk, off+int64(total))
		if n > 0 {
			total += n
		}
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return err
		}
		if n == 0 {
			return fmt.Errorf("filedev: pwrite returned 0 bytes at offset %d", off+int64(total))
		}
	}
	return nil
}

// ReadAt implements storage.Backend. The file is pre-extended to its full
// capacity, so reads inside [0, size) are always full; a concurrent
// external truncation surfaces as an error, with any bytes past the
// shortened end read as zero only when the OS reports a clean EOF.
func (d *File) ReadAt(p []byte, off int64) error {
	if off < 0 || off+int64(len(p)) > d.size {
		return fmt.Errorf("filedev: read [%d,%d) outside %s capacity %d", off, off+int64(len(p)), d.path, d.size)
	}
	n, err := pread(int(d.f.Fd()), p, off)
	if err == io.EOF {
		// The region past the file's physical end reads as zero — the
		// sparse-file contract (can only happen if the file was truncated
		// behind our back, e.g. by a torn-tail recovery test).
		for i := n; i < len(p); i++ {
			p[i] = 0
		}
		return nil
	}
	return err
}

// WriteAt implements storage.Backend (pwrite, looped until full).
func (d *File) WriteAt(p []byte, off int64) error {
	if off < 0 || off+int64(len(p)) > d.size {
		return fmt.Errorf("filedev: write [%d,%d) outside %s capacity %d", off, off+int64(len(p)), d.path, d.size)
	}
	return pwrite(int(d.f.Fd()), p, off)
}

// Sync implements storage.Backend: fsync, the real durability barrier.
func (d *File) Sync() error { return d.f.Sync() }

// Close implements storage.Backend. It does not sync: a clean shutdown
// syncs explicitly first, and a crash test closes without syncing on
// purpose.
func (d *File) Close() error { return d.f.Close() }
