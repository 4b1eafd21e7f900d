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
// EINTR. An optional O_DIRECT mode (Options.Direct) bypasses the page
// cache for requests whose offset, length and buffer all satisfy the
// device alignment; unaligned requests silently take the buffered fd, so
// correctness never depends on the caller's buffer provenance. Pair
// direct mode with the package's aligned buffer pool (Pool) to make the
// hot migration/merge paths alignment-eligible.
package filedev

import (
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"syscall"

	"masm/internal/storage"
)

// DirectAlign is the alignment (offset, length and buffer address) a
// request must satisfy to be eligible for the O_DIRECT fd. 4096 covers
// every modern Linux filesystem/device combination; 512-byte-aligned
// devices accept it too.
const DirectAlign = 4096

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

// Options configures Open.
type Options struct {
	// Direct requests O_DIRECT for aligned I/O. When the filesystem
	// refuses O_DIRECT (tmpfs, some overlayfs), the file silently falls
	// back to fully buffered I/O — direct mode is a performance hint,
	// never a correctness switch.
	Direct bool
}

// File is a file-backed storage.Backend. It is safe for concurrent use:
// ReadAt/WriteAt map to pread/pwrite, which the OS serializes per byte
// range, and the engine above never issues overlapping writes.
type File struct {
	f    *os.File // buffered fd; also the fsync target
	df   *os.File // O_DIRECT fd, nil unless direct mode is active
	path string
	size int64
}

var _ storage.Backend = (*File)(nil)

// Open opens (creating if absent) the file at path as a backend of the
// given capacity. An existing file keeps its content; a shorter file is
// extended with a hole so the full capacity is readable. An existing file
// larger than size is rejected: it belongs to a layout with a different
// geometry.
func Open(path string, size int64, opts Options) (*File, error) {
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
	d := &File{f: f, path: path, size: size}
	if opts.Direct {
		// A second fd on the same file: aligned requests go direct, the
		// rest stay buffered. Linux keeps the two views coherent enough
		// for our access pattern (the engine never issues overlapping
		// concurrent writes, and fsync on either fd flushes the inode).
		if df, derr := os.OpenFile(path, os.O_RDWR|syscall.O_DIRECT, 0o644); derr == nil {
			d.df = df
		}
	}
	return d, nil
}

// Size implements storage.Backend.
func (d *File) Size() int64 { return d.size }

// aligned reports whether a request may use the O_DIRECT fd.
func aligned(p []byte, off int64) bool {
	if off%DirectAlign != 0 || len(p)%DirectAlign != 0 || len(p) == 0 {
		return false
	}
	return storage.Aligned(p, DirectAlign)
}

// readFD picks the fd for a read request.
func (d *File) readFD(p []byte, off int64) int {
	if d.df != nil && aligned(p, off) {
		return int(d.df.Fd())
	}
	return int(d.f.Fd())
}

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
	n, err := pread(d.readFD(p, off), p, off)
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
	fd := int(d.f.Fd())
	if d.df != nil && aligned(p, off) {
		fd = int(d.df.Fd())
	}
	return pwrite(fd, p, off)
}

// Sync implements storage.Backend: fsync, the real durability barrier.
// One fsync covers both fds — durability is a property of the inode, not
// of the descriptor the bytes arrived through.
func (d *File) Sync() error { return d.f.Sync() }

// Close implements storage.Backend. It does not sync: a clean shutdown
// syncs explicitly first, and a crash test closes without syncing on
// purpose.
func (d *File) Close() error {
	var derr error
	if d.df != nil {
		derr = d.df.Close()
		d.df = nil
	}
	if err := d.f.Close(); err != nil {
		return err
	}
	return derr
}
