package fs

import (
	"errors"
	"fmt"
	"io"
)

// ErrClosed reports an operation on a closed file handle.
var ErrClosed = errors.New("fs: file already closed")

// File is an open handle with a cursor, implementing the standard io
// interfaces over the memory-resident file system. Handles are cheap —
// there is no per-open kernel state beyond the cursor — but Close is
// still required by convention and renders the handle inert.
type File struct {
	fs     *FS
	path   string
	pos    int64
	closed bool
}

// Open returns a handle on an existing file.
func (f *FS) Open(path string) (*File, error) {
	if _, err := f.resolveFile(path); err != nil {
		return nil, err
	}
	return &File{fs: f, path: path}, nil
}

// OpenFile returns a handle, creating the file if it does not exist.
func (f *FS) OpenFile(path string) (*File, error) {
	if !f.Exists(path) {
		if err := f.Create(path); err != nil {
			return nil, err
		}
	}
	return f.Open(path)
}

// Name reports the path the handle was opened with.
func (h *File) Name() string { return h.path }

func (h *File) check() error {
	if h.closed {
		return ErrClosed
	}
	return nil
}

// Size reports the file's current size.
func (h *File) Size() (int64, error) {
	if err := h.check(); err != nil {
		return 0, err
	}
	info, err := h.fs.Stat(h.path)
	if err != nil {
		return 0, err
	}
	return info.Size, nil
}

// Read implements io.Reader.
func (h *File) Read(p []byte) (int, error) {
	if err := h.check(); err != nil {
		return 0, err
	}
	n, err := h.fs.ReadAt(h.path, h.pos, p)
	h.pos += int64(n)
	if err != nil {
		return n, err
	}
	if n == 0 && len(p) > 0 {
		return 0, io.EOF
	}
	return n, nil
}

// ReadAt implements io.ReaderAt.
func (h *File) ReadAt(p []byte, off int64) (int, error) {
	if err := h.check(); err != nil {
		return 0, err
	}
	n, err := h.fs.ReadAt(h.path, off, p)
	if err != nil {
		return n, err
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// Write implements io.Writer, extending the file at the cursor.
func (h *File) Write(p []byte) (int, error) {
	if err := h.check(); err != nil {
		return 0, err
	}
	n, err := h.fs.WriteAt(h.path, h.pos, p)
	h.pos += int64(n)
	return n, err
}

// WriteAt implements io.WriterAt.
func (h *File) WriteAt(p []byte, off int64) (int, error) {
	if err := h.check(); err != nil {
		return 0, err
	}
	return h.fs.WriteAt(h.path, off, p)
}

// Seek implements io.Seeker.
func (h *File) Seek(offset int64, whence int) (int64, error) {
	if err := h.check(); err != nil {
		return 0, err
	}
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = h.pos
	case io.SeekEnd:
		size, err := h.Size()
		if err != nil {
			return 0, err
		}
		base = size
	default:
		return 0, fmt.Errorf("%w: whence %d", ErrBadPath, whence)
	}
	pos := base + offset
	if pos < 0 {
		return 0, fmt.Errorf("%w: seek to %d", ErrBadPath, pos)
	}
	h.pos = pos
	return pos, nil
}

// Sync migrates the file's dirty blocks to flash (fsync).
func (h *File) Sync() error {
	if err := h.check(); err != nil {
		return err
	}
	node, err := h.fs.resolve(h.path)
	if err != nil {
		return err
	}
	return h.fs.sm.SyncObject(node.Ino)
}

// Close renders the handle inert.
func (h *File) Close() error {
	if h.closed {
		return ErrClosed
	}
	h.closed = true
	return nil
}

var (
	_ io.Reader   = (*File)(nil)
	_ io.Writer   = (*File)(nil)
	_ io.Seeker   = (*File)(nil)
	_ io.ReaderAt = (*File)(nil)
	_ io.WriterAt = (*File)(nil)
	_ io.Closer   = (*File)(nil)
)
