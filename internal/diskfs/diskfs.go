// Package diskfs implements the conventional disk-based file system the
// paper's organisation is measured against: an FFS-like design with an
// on-disk inode table, direct and indirect block pointers, and a buffer
// cache between the file system and the mechanical disk.
//
// It deliberately keeps the costs the paper says solid-state storage
// eliminates:
//
//   - data and metadata live on disk and are duplicated into the DRAM
//     buffer cache to be used at all;
//   - large files pay extra device accesses for single- and
//     double-indirect pointer blocks;
//   - name-space mutations (create, remove, rename) write inode blocks
//     through to disk synchronously, the classic price of metadata
//     integrity on a volatile-memory machine;
//   - data writes are delayed in the cache and flushed by a periodic
//     write-back daemon.
//
// The namespace is flat (the experiments address files by name); the
// interesting costs are all in the block and metadata paths.
package diskfs

import (
	"encoding/binary"
	"errors"
	"fmt"

	"ssmobile/internal/bufcache"
)

// Sentinel errors.
var (
	// ErrNotExist reports a missing file.
	ErrNotExist = errors.New("diskfs: no such file")
	// ErrExist reports a create over an existing name.
	ErrExist = errors.New("diskfs: file exists")
	// ErrNoSpace reports data-region exhaustion.
	ErrNoSpace = errors.New("diskfs: out of space")
	// ErrNoInodes reports inode-table exhaustion.
	ErrNoInodes = errors.New("diskfs: out of inodes")
	// ErrTooBig reports a file exceeding the pointer geometry.
	ErrTooBig = errors.New("diskfs: file too large")
	// ErrBadArg reports an invalid offset or size.
	ErrBadArg = errors.New("diskfs: bad argument")
)

const (
	inodeBytes = 128
	numDirect  = 12
	// inodeBlocks is the size of the on-disk inode table in blocks: 16k
	// inodes in 4 KB blocks.
	inodeBlocks = 512
)

// inode is the in-core copy of an on-disk inode.
type inode struct {
	ino      int64
	size     int64
	direct   [numDirect]int64 // 0 = unallocated (block 0 is the superblock)
	indirect int64
	dindir   int64
}

// FS is the conventional file system. Not safe for concurrent use.
type FS struct {
	cache *bufcache.Cache
	bs    int64

	names     map[string]int64 // name → ino
	inodes    map[int64]*inode // in-core inode cache (all of them)
	freeInos  []int64
	freeBlks  []int64
	dataBase  int64
	numBlocks int64
}

// New formats and mounts a fresh file system over the cache.
func New(cache *bufcache.Cache) (*FS, error) { return format(cache, inodeBlocks) }

// format formats and mounts a file system whose inode table is
// tableBlocks blocks long.
func format(cache *bufcache.Cache, tableBlocks int64) (*FS, error) {
	bs := int64(cache.BlockBytes())
	blocks := cache.Blocks()
	dataBase := 1 + tableBlocks
	if dataBase >= blocks {
		return nil, fmt.Errorf("diskfs: device of %d blocks too small", blocks)
	}
	f := &FS{
		cache:     cache,
		bs:        bs,
		names:     make(map[string]int64),
		inodes:    make(map[int64]*inode),
		dataBase:  dataBase,
		numBlocks: blocks,
	}
	inosPerBlock := bs / inodeBytes
	for ino := tableBlocks*inosPerBlock - 1; ino >= 0; ino-- {
		f.freeInos = append(f.freeInos, ino)
	}
	for bn := blocks - 1; bn >= dataBase; bn-- {
		f.freeBlks = append(f.freeBlks, bn)
	}
	return f, nil
}

func (f *FS) ptrsPerBlock() int64 { return f.bs / 8 }

func (f *FS) maxFileBlocks() int64 {
	p := f.ptrsPerBlock()
	return numDirect + p + p*p
}

// inodeBlock returns the inode-table block and intra-block offset of ino.
func (f *FS) inodeBlock(ino int64) (bn int64, off int64) {
	inosPerBlock := f.bs / inodeBytes
	return 1 + ino/inosPerBlock, (ino % inosPerBlock) * inodeBytes
}

// writeInodeSync writes the inode through to disk (metadata integrity).
func (f *FS) writeInodeSync(nd *inode) error {
	return f.writeInode(nd, true)
}

// writeInodeAsync updates the cached inode block, flushed lazily.
func (f *FS) writeInodeAsync(nd *inode) error {
	return f.writeInode(nd, false)
}

func (f *FS) writeInode(nd *inode, through bool) error {
	bn, off := f.inodeBlock(nd.ino)
	buf := make([]byte, f.bs)
	if err := f.cache.ReadBlock(bn, buf); err != nil {
		return err
	}
	rec := buf[off : off+inodeBytes]
	binary.LittleEndian.PutUint64(rec[0:], uint64(nd.size))
	for i, d := range nd.direct {
		binary.LittleEndian.PutUint64(rec[8+8*i:], uint64(d))
	}
	binary.LittleEndian.PutUint64(rec[8+8*numDirect:], uint64(nd.indirect))
	binary.LittleEndian.PutUint64(rec[16+8*numDirect:], uint64(nd.dindir))
	if through {
		return f.cache.WriteBlockThrough(bn, buf)
	}
	return f.cache.WriteBlock(bn, buf)
}

func (f *FS) allocBlock() (int64, error) {
	n := len(f.freeBlks)
	if n == 0 {
		return 0, ErrNoSpace
	}
	bn := f.freeBlks[n-1]
	f.freeBlks = f.freeBlks[:n-1]
	return bn, nil
}

func (f *FS) freeBlock(bn int64) {
	f.cache.Invalidate(bn)
	f.freeBlks = append(f.freeBlks, bn)
}

// readPtr reads one pointer from a pointer block.
func (f *FS) readPtr(bn, idx int64) (int64, error) {
	buf := make([]byte, f.bs)
	if err := f.cache.ReadBlock(bn, buf); err != nil {
		return 0, err
	}
	return int64(binary.LittleEndian.Uint64(buf[idx*8:])), nil
}

// writePtr updates one pointer in a pointer block (write-back).
func (f *FS) writePtr(bn, idx, val int64) error {
	buf := make([]byte, f.bs)
	if err := f.cache.ReadBlock(bn, buf); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(buf[idx*8:], uint64(val))
	return f.cache.WriteBlock(bn, buf)
}

// blockFor resolves the data block holding file block idx, allocating the
// chain if alloc is set. It returns 0 for an unallocated hole.
func (f *FS) blockFor(nd *inode, idx int64, alloc bool) (int64, error) {
	if idx < 0 || idx >= f.maxFileBlocks() {
		return 0, fmt.Errorf("%w: block %d", ErrTooBig, idx)
	}
	p := f.ptrsPerBlock()
	switch {
	case idx < numDirect:
		if nd.direct[idx] == 0 && alloc {
			bn, err := f.allocBlock()
			if err != nil {
				return 0, err
			}
			nd.direct[idx] = bn
			if err := f.writeInodeAsync(nd); err != nil {
				return 0, err
			}
		}
		return nd.direct[idx], nil

	case idx < numDirect+p:
		if nd.indirect == 0 {
			if !alloc {
				return 0, nil
			}
			bn, err := f.allocBlock()
			if err != nil {
				return 0, err
			}
			if err := f.cache.WriteBlock(bn, make([]byte, f.bs)); err != nil {
				return 0, err
			}
			nd.indirect = bn
			if err := f.writeInodeAsync(nd); err != nil {
				return 0, err
			}
		}
		slot := idx - numDirect
		bn, err := f.readPtr(nd.indirect, slot)
		if err != nil {
			return 0, err
		}
		if bn == 0 && alloc {
			bn, err = f.allocBlock()
			if err != nil {
				return 0, err
			}
			if err := f.writePtr(nd.indirect, slot, bn); err != nil {
				return 0, err
			}
		}
		return bn, nil

	default:
		if nd.dindir == 0 {
			if !alloc {
				return 0, nil
			}
			bn, err := f.allocBlock()
			if err != nil {
				return 0, err
			}
			if err := f.cache.WriteBlock(bn, make([]byte, f.bs)); err != nil {
				return 0, err
			}
			nd.dindir = bn
			if err := f.writeInodeAsync(nd); err != nil {
				return 0, err
			}
		}
		rest := idx - numDirect - p
		outer, inner := rest/p, rest%p
		l1, err := f.readPtr(nd.dindir, outer)
		if err != nil {
			return 0, err
		}
		if l1 == 0 {
			if !alloc {
				return 0, nil
			}
			l1, err = f.allocBlock()
			if err != nil {
				return 0, err
			}
			if err := f.cache.WriteBlock(l1, make([]byte, f.bs)); err != nil {
				return 0, err
			}
			if err := f.writePtr(nd.dindir, outer, l1); err != nil {
				return 0, err
			}
		}
		bn, err := f.readPtr(l1, inner)
		if err != nil {
			return 0, err
		}
		if bn == 0 && alloc {
			bn, err = f.allocBlock()
			if err != nil {
				return 0, err
			}
			if err := f.writePtr(l1, inner, bn); err != nil {
				return 0, err
			}
		}
		return bn, nil
	}
}

// Create makes an empty file, writing its inode synchronously.
func (f *FS) Create(name string) error {
	if _, ok := f.names[name]; ok {
		return fmt.Errorf("%w: %q", ErrExist, name)
	}
	n := len(f.freeInos)
	if n == 0 {
		return ErrNoInodes
	}
	ino := f.freeInos[n-1]
	f.freeInos = f.freeInos[:n-1]
	nd := &inode{ino: ino}
	f.inodes[ino] = nd
	f.names[name] = ino
	return f.writeInodeSync(nd)
}

func (f *FS) lookup(name string) (*inode, error) {
	ino, ok := f.names[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotExist, name)
	}
	return f.inodes[ino], nil
}

// WriteAt writes data at off, allocating blocks and pointer chains.
func (f *FS) WriteAt(name string, off int64, data []byte) (int, error) {
	nd, err := f.lookup(name)
	if err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, ErrBadArg
	}
	written := 0
	for written < len(data) {
		pos := off + int64(written)
		idx := pos / f.bs
		blkOff := pos % f.bs
		n := int(f.bs - blkOff)
		if n > len(data)-written {
			n = len(data) - written
		}
		bn, err := f.blockFor(nd, idx, true)
		if err != nil {
			return written, err
		}
		if blkOff == 0 && n == int(f.bs) {
			if err := f.cache.WriteBlock(bn, data[written:written+n]); err != nil {
				return written, err
			}
		} else {
			buf := make([]byte, f.bs)
			if err := f.cache.ReadBlock(bn, buf); err != nil {
				return written, err
			}
			copy(buf[blkOff:], data[written:written+n])
			if err := f.cache.WriteBlock(bn, buf); err != nil {
				return written, err
			}
		}
		written += n
	}
	if end := off + int64(len(data)); end > nd.size {
		nd.size = end
		if err := f.writeInodeAsync(nd); err != nil {
			return written, err
		}
	}
	return written, nil
}

// ReadAt reads up to len(buf) bytes at off, short at EOF.
func (f *FS) ReadAt(name string, off int64, buf []byte) (int, error) {
	nd, err := f.lookup(name)
	if err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, ErrBadArg
	}
	if off >= nd.size {
		return 0, nil
	}
	want := int64(len(buf))
	if off+want > nd.size {
		want = nd.size - off
	}
	read := int64(0)
	block := make([]byte, f.bs)
	for read < want {
		pos := off + read
		idx := pos / f.bs
		blkOff := pos % f.bs
		n := f.bs - blkOff
		if n > want-read {
			n = want - read
		}
		bn, err := f.blockFor(nd, idx, false)
		if err != nil {
			return int(read), err
		}
		if bn == 0 {
			for i := int64(0); i < n; i++ {
				buf[read+i] = 0
			}
		} else {
			if err := f.cache.ReadBlock(bn, block); err != nil {
				return int(read), err
			}
			copy(buf[read:read+n], block[blkOff:blkOff+n])
		}
		read += n
	}
	return int(read), nil
}

// forEachBlock walks every allocated data and pointer block of the file.
func (f *FS) forEachBlock(nd *inode, fn func(bn int64)) error {
	for _, bn := range nd.direct {
		if bn != 0 {
			fn(bn)
		}
	}
	p := f.ptrsPerBlock()
	if nd.indirect != 0 {
		for i := int64(0); i < p; i++ {
			bn, err := f.readPtr(nd.indirect, i)
			if err != nil {
				return err
			}
			if bn != 0 {
				fn(bn)
			}
		}
		fn(nd.indirect)
	}
	if nd.dindir != 0 {
		for i := int64(0); i < p; i++ {
			l1, err := f.readPtr(nd.dindir, i)
			if err != nil {
				return err
			}
			if l1 == 0 {
				continue
			}
			for j := int64(0); j < p; j++ {
				bn, err := f.readPtr(l1, j)
				if err != nil {
					return err
				}
				if bn != 0 {
					fn(bn)
				}
			}
			fn(l1)
		}
		fn(nd.dindir)
	}
	return nil
}

// Remove deletes the file, freeing its blocks and writing the inode
// synchronously.
func (f *FS) Remove(name string) error {
	nd, err := f.lookup(name)
	if err != nil {
		return err
	}
	if err := f.forEachBlock(nd, f.freeBlock); err != nil {
		return err
	}
	delete(f.names, name)
	delete(f.inodes, nd.ino)
	f.freeInos = append(f.freeInos, nd.ino)
	cleared := &inode{ino: nd.ino}
	return f.writeInodeSync(cleared)
}

// Sync flushes all dirty cached blocks to disk.
func (f *FS) Sync() error { return f.cache.Sync() }

// Tick runs the cache's write-back daemon.
func (f *FS) Tick() error { return f.cache.Tick() }
