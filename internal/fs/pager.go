package fs

import (
	"fmt"

	"ssmobile/internal/storman"
	"ssmobile/internal/vm"
)

// filePager serves a file's blocks to the VM. Reads go through the
// storage manager, so flash-resident blocks are charged flash reads in
// place and DRAM-resident blocks DRAM reads — "files in flash memory can
// be mapped directly into the address spaces of interested processes
// without having to make a copy in primary storage" (paper §3.1).
type filePager struct {
	fs   *FS
	ino  uint64
	size int64 // size at map time; later growth is not visible
}

// ReadPage implements vm.ExternalPager.
func (p *filePager) ReadPage(idx int64, buf []byte) error {
	off := idx * int64(p.fs.BlockBytes())
	// Past the file size at map time the page reads as zero.
	n := max(0, min(int64(len(buf)), p.size-off))
	clear(buf[n:])
	return p.fs.sm.ReadAt(p.ino, off, buf[:n])
}

// WritePage implements vm.ExternalWriter for shared mappings: the page's
// bytes (clamped to the file size at map time) go back through the
// storage manager, landing in battery-backed DRAM like any other write.
func (p *filePager) WritePage(idx int64, data []byte) error {
	bs := int64(p.fs.BlockBytes())
	n := int64(len(data))
	if remain := p.size - idx*bs; remain < n {
		n = remain
	}
	if n <= 0 {
		return nil
	}
	return p.fs.sm.WriteBlockAt(storman.Key{Object: p.ino, Block: idx}, 0, data[:n])
}

// MapFile maps the file at path into the address space at addr. The
// mapping covers the file rounded up to whole pages (past-EOF bytes read
// as zero) and is private: with PermWrite, the first write to a page
// copies it into an anonymous DRAM frame (copy-on-write) and changes do
// not propagate back to the file. It returns the mapped length.
func (f *FS) MapFile(v *vm.VM, s *vm.Space, addr uint64, path string, perm vm.Perm) (int, error) {
	return f.mapFile(v.MapExternal, s, addr, path, perm)
}

// MapFileShared maps the file like MapFile but as a shared mapping:
// writes to the mapping are pushed back into the file by vm.Msync (or
// unmap), within the file's size at map time. This is the full
// memory-mapped file interface of §3.1.
func (f *FS) MapFileShared(v *vm.VM, s *vm.Space, addr uint64, path string, perm vm.Perm) (int, error) {
	return f.mapFile(v.MapExternalShared, s, addr, path, perm)
}

// mapFile maps the file at path with mapExternal, one of the VM's two
// external mapping calls, over its length rounded up to whole pages.
func (f *FS) mapFile(mapExternal func(*vm.Space, uint64, vm.ExternalPager, int64, int, vm.Perm) error,
	s *vm.Space, addr uint64, path string, perm vm.Perm) (int, error) {
	node, err := f.resolveFile(path)
	if err != nil {
		return 0, err
	}
	if f.BlockBytes() != vm.PageBytes {
		return 0, fmt.Errorf("fs: block size %d != vm page size %d", f.BlockBytes(), vm.PageBytes)
	}
	const pb = vm.PageBytes
	length := int(max(1, (node.Size+pb-1)/pb) * pb)
	pager := &filePager{fs: f, ino: node.Ino, size: node.Size}
	if err := mapExternal(s, addr, pager, 0, length, perm); err != nil {
		return 0, err
	}
	return length, nil
}
