// Package fs implements the memory-resident file system of the paper's
// §3.1.
//
// Because every byte of storage is directly addressable at memory speed,
// the file system drops the machinery disks made necessary:
//
//   - no block clustering or seek-aware layout — blocks are wherever the
//     physical storage manager put them;
//   - no multi-level indirect blocks — a file's blocks are found by a
//     direct (inode, block-index) lookup;
//   - no file buffer cache — data is read in place from DRAM or flash.
//
// Metadata lives in battery-backed DRAM and is protected the way the
// paper suggests (citing the Recovery Box work): a reserved, checksummed
// DRAM region holds a metadata snapshot plus a journal of mutations since
// the snapshot. An operating-system crash cannot hurt it — battery-backed
// DRAM survives crashes — and recovery is a snapshot load plus journal
// replay. Against power failures (which do destroy DRAM), the file system
// checkpoints metadata to flash through the storage manager — a whole
// image now and then, and between images a log of the same journal
// records, so a sync programs what changed rather than what exists
// (checkpoint.go); data loss is then bounded by what the write-back policy
// had not yet migrated.
//
// File data goes through storman.Manager, which decides DRAM versus flash
// placement, absorbs overwrites and short-lived files in DRAM, and
// copy-on-writes flash-resident blocks. Memory-mapped files are served in
// place through a vm.ExternalPager.
package fs

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"ssmobile/internal/dram"
	"ssmobile/internal/obs"
	"ssmobile/internal/sim"
	"ssmobile/internal/storman"
)

// Sentinel errors.
var (
	// ErrNotExist reports a missing path component.
	ErrNotExist = errors.New("fs: no such file or directory")
	// ErrExist reports a create over an existing name.
	ErrExist = errors.New("fs: file exists")
	// ErrNotDir reports a non-directory used as one.
	ErrNotDir = errors.New("fs: not a directory")
	// ErrIsDir reports a file operation on a directory.
	ErrIsDir = errors.New("fs: is a directory")
	// ErrNotEmpty reports removal of a non-empty directory.
	ErrNotEmpty = errors.New("fs: directory not empty")
	// ErrBadPath reports a malformed path.
	ErrBadPath = errors.New("fs: bad path")
	// ErrRBoxFull reports that metadata outgrew the recovery-box region.
	ErrRBoxFull = errors.New("fs: recovery box full")
)

// Kind distinguishes files from directories.
type Kind uint8

// Inode kinds.
const (
	KindFile Kind = iota
	KindDir
)

// String names the kind.
func (k Kind) String() string {
	if k == KindDir {
		return "dir"
	}
	return "file"
}

// RootIno is the root directory's inode number. Object 0 in the storage
// manager is reserved for the metadata checkpoint: its images and their
// logs (checkpoint.go).
const RootIno uint64 = 1

const metaObject uint64 = 0

// maxNameBytes is the longest name a directory entry may have: a journal
// record holds a name's length in 16 bits (appendRecord).
const maxNameBytes = math.MaxUint16

// Inode is the on-"disk" metadata of one file or directory. The exported
// fields are what the snapshot holds (snapcodec.go); Entries is written
// only through setEntry and delEntry, which keep the name order beside it.
type Inode struct {
	Ino     uint64
	Kind    Kind
	Size    int64
	Nlink   int
	MtimeNs int64
	Entries map[string]uint64 // directories only

	// Kept snapshot encoding.
	enc  inodeEnc // this inode as the snapshot holds it
	ents []dirEnt // Entries in name order
}

// Info is the result of Stat and ReadDir.
type Info struct {
	Name  string
	Ino   uint64
	Kind  Kind
	Size  int64
	Nlink int
	Mtime sim.Time
}

// Config parameterises the file system.
type Config struct {
	// RBoxBase and RBoxBytes delimit the recovery-box region in the DRAM
	// device. Zero bytes disables the recovery box (no crash protection).
	RBoxBase  int64
	RBoxBytes int64
	// SnapshotEvery forces a fresh recovery-box snapshot after this many
	// journal records; the journal is also compacted into a snapshot when
	// its region fills. Default 512.
	SnapshotEvery int
	// Obs receives the file system's metrics and op spans; nil falls back
	// to obs.Default().
	Obs *obs.Observer
}

// FS is the memory-resident file system. Not safe for concurrent use.
type FS struct {
	cfg   Config
	clock *sim.Clock
	sm    *storman.Manager
	dram  *dram.Device

	nextIno uint64
	inodes  map[uint64]*Inode
	order   []*Inode // inodes in Ino order, the order the snapshot encodes

	rbox *rbox

	// ckpt is where the flash checkpoint stands, and pending the log
	// frame the next one will seal: ckptHeaderBytes of header, then every
	// record journalled since the last checkpoint (see checkpoint.go).
	ckpt    ckptState
	pending []byte

	// blockBuf assembles one block per ReadAt/WriteAt iteration. FS is
	// single-threaded (see the type comment) and no consumer retains it.
	blockBuf []byte

	// inodeFree recycles fully-unlinked inodes (delete/recreate churn is
	// steady-state traffic for object stores); recycled inodes are reset
	// wholesale before reuse, so no stale field or cached encoding survives.
	inodeFree []*Inode

	obs                     *obs.Observer
	creates, reads, writes  *obs.Counter
	removes, syncs          *obs.Counter
	bytesRead, bytesWritten *obs.Counter
	ckptCount, ckptBytes    [ckptKinds]*obs.Counter // by checkpoint kind
	ckptLogBytes            *obs.Gauge              // log bytes since the last image
}

// emptyState is the metadata of a file system holding nothing but its
// root directory.
func emptyState() snapshotState {
	root := &Inode{Ino: RootIno, Kind: KindDir, Nlink: 1, Entries: make(map[string]uint64)}
	return snapshotState{NextIno: RootIno + 1, Inodes: map[uint64]*Inode{RootIno: root}, order: []*Inode{root}}
}

// Mkfs creates an empty file system on the storage manager, with its
// recovery box in the given DRAM region.
func Mkfs(cfg Config, clock *sim.Clock, sm *storman.Manager, dramDev *dram.Device) (*FS, error) {
	return openFS(cfg, clock, sm, dramDev, emptyState(), nil)
}

// openFS builds the in-core file system over a metadata state: the empty
// tree for Mkfs, the recovered one for the two recoveries. It is the one
// place the telemetry handles and the kept snapshot order are set up, so a
// recovered file system counts, traces and encodes like a fresh one. rb is
// a recovery box the caller has already opened (RecoverAfterCrash read st
// out of it); nil opens one if the config asks for it. Either way the box
// restarts from a snapshot of st with an empty journal, and the flash
// checkpoint restarts the same way: the first one a reopened file system
// takes is a whole image of a new generation, so a log is only ever
// extended by the file system that wrote the image under it.
func openFS(cfg Config, clock *sim.Clock, sm *storman.Manager, dramDev *dram.Device, st snapshotState, rb *rbox) (*FS, error) {
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = 512
	}
	o := obs.Or(cfg.Obs)
	lbl := func(op string) obs.Labels { return obs.Labels{"layer": "fs", "op": op} }
	f := &FS{
		cfg:          cfg,
		clock:        clock,
		sm:           sm,
		dram:         dramDev,
		nextIno:      st.NextIno,
		inodes:       st.Inodes,
		order:        st.inoOrder(),
		rbox:         rb,
		obs:          o,
		creates:      o.Counter("ops_total", lbl("create")),
		reads:        o.Counter("ops_total", lbl("read")),
		writes:       o.Counter("ops_total", lbl("write")),
		removes:      o.Counter("ops_total", lbl("remove")),
		syncs:        o.Counter("ops_total", lbl("sync")),
		bytesRead:    o.Counter("bytes_total", lbl("read")),
		bytesWritten: o.Counter("bytes_total", lbl("write")),
		ckptLogBytes: o.Gauge("checkpoint_log_bytes", obs.Labels{"layer": "fs"}),
		ckpt:         ckptState{imageNext: true, image: make([]byte, ckptHeaderBytes, 4096)},
		pending:      make([]byte, ckptHeaderBytes, 512),
	}
	for kind, name := range ckptKindNames {
		kl := obs.Labels{"layer": "fs", "kind": name}
		f.ckptCount[kind] = o.Counter("checkpoints_total", kl)
		if kind != ckptEmpty { // an empty checkpoint writes no bytes to count
			f.ckptBytes[kind] = o.Counter("checkpoint_bytes_total", kl)
		}
	}
	f.ckptLogBytes.Set(0)
	// Whatever generations object 0 still holds — committed, torn, or
	// brought back by a remount that forgot their trim — the next image
	// is numbered past all of them and retires them once it commits.
	if blocks := sm.Blocks(metaObject); len(blocks) > 0 {
		f.ckpt.gen = uint64(blocks[len(blocks)-1] >> ckptGenShift)
	}
	if f.rbox == nil && cfg.RBoxBytes > 0 {
		var err error
		if f.rbox, err = newRBox(cfg, clock, dramDev); err != nil {
			return nil, err
		}
	}
	if f.rbox != nil {
		if err := f.rbox.snapshot(f.snapshotState()); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// BlockBytes reports the file system block size.
func (f *FS) BlockBytes() int { return f.sm.BlockBytes() }

// Manager exposes the underlying storage manager (for experiments).
func (f *FS) Manager() *storman.Manager { return f.sm }

// splitPath validates and splits an absolute path into components. Cold
// paths (MkdirAll, Stat's leaf naming) still use it; the per-request walk
// below slices components out of the path in place instead.
func splitPath(path string) ([]string, error) {
	if path == "" || path[0] != '/' {
		return nil, fmt.Errorf("%w: %q must be absolute", ErrBadPath, path)
	}
	var parts []string
	for _, c := range strings.Split(path, "/") {
		switch c {
		case "", ".":
		case "..":
			return nil, fmt.Errorf("%w: %q may not contain ..", ErrBadPath, path)
		default:
			parts = append(parts, c)
		}
	}
	return parts, nil
}

// walkErrKind classifies a path-walk failure without formatting an error,
// so probe callers (Exists, the server's existence checks) pay nothing on
// the miss path; resolve formats the kind into the public error values.
type walkErrKind uint8

const (
	walkOK walkErrKind = iota
	walkNotAbsolute
	walkDotDot
	walkNotDir
	walkNotExist
	walkDangling
	walkNoParent
)

// validate checks the path shape the way splitPath does — absolute, no
// ".." anywhere — before any component is resolved, so malformed paths
// report ErrBadPath even when an earlier component is missing.
func validatePath(path string) walkErrKind {
	if path == "" || path[0] != '/' {
		return walkNotAbsolute
	}
	for i := 0; i < len(path); {
		j := i + 1
		for j < len(path) && path[j] != '/' {
			j++
		}
		if path[i+1:j] == ".." {
			return walkDotDot
		}
		i = j
	}
	return walkOK
}

// walk resolves path to an inode without allocating.
func (f *FS) walk(path string) (*Inode, walkErrKind, string) {
	if kind := validatePath(path); kind != walkOK {
		return nil, kind, ""
	}
	cur := f.inodes[RootIno]
	for i := 0; i < len(path); {
		j := i + 1
		for j < len(path) && path[j] != '/' {
			j++
		}
		name := path[i+1 : j]
		i = j
		if name == "" || name == "." {
			continue
		}
		if cur.Kind != KindDir {
			return nil, walkNotDir, ""
		}
		ino, ok := cur.Entries[name]
		if !ok {
			return nil, walkNotExist, ""
		}
		cur = f.inodes[ino]
		if cur == nil {
			return nil, walkDangling, name
		}
	}
	return cur, walkOK, ""
}

// walkParent resolves path's parent directory and leaf name without
// allocating.
func (f *FS) walkParent(path string) (*Inode, string, walkErrKind, string) {
	if kind := validatePath(path); kind != walkOK {
		return nil, "", kind, ""
	}
	cur := f.inodes[RootIno]
	leaf := ""
	for i := 0; i < len(path); {
		j := i + 1
		for j < len(path) && path[j] != '/' {
			j++
		}
		name := path[i+1 : j]
		i = j
		if name == "" || name == "." {
			continue
		}
		if leaf != "" {
			if cur.Kind != KindDir {
				return nil, "", walkNotDir, ""
			}
			ino, ok := cur.Entries[leaf]
			if !ok {
				return nil, "", walkNotExist, ""
			}
			cur = f.inodes[ino]
			if cur == nil {
				return nil, "", walkDangling, leaf
			}
		}
		leaf = name
	}
	if leaf == "" {
		return nil, "", walkNoParent, ""
	}
	if cur.Kind != KindDir {
		return nil, "", walkNotDir, ""
	}
	return cur, leaf, walkOK, ""
}

// walkError formats a walk failure into the public error values, with the
// same messages resolve has always produced.
func walkError(kind walkErrKind, comp, path string) error {
	switch kind {
	case walkNotAbsolute:
		return fmt.Errorf("%w: %q must be absolute", ErrBadPath, path)
	case walkDotDot:
		return fmt.Errorf("%w: %q may not contain ..", ErrBadPath, path)
	case walkNotDir:
		return fmt.Errorf("%w: %q", ErrNotDir, path)
	case walkNotExist:
		return fmt.Errorf("%w: %q", ErrNotExist, path)
	case walkDangling:
		return fmt.Errorf("fs: dangling entry %q in %q", comp, path)
	case walkNoParent:
		return fmt.Errorf("%w: %q has no parent", ErrBadPath, path)
	}
	return nil
}

// resolve walks the path to an inode. The success path does not allocate;
// errors are formatted only when they actually propagate.
func (f *FS) resolve(path string) (*Inode, error) {
	node, kind, comp := f.walk(path)
	if kind != walkOK {
		return nil, walkError(kind, comp, path)
	}
	return node, nil
}

// resolveParent walks to the parent directory of path and returns it with
// the leaf name. Every entry is made, renamed or removed under a name that
// came through here, so a name too long for a journal record is refused
// here, before any mutation.
func (f *FS) resolveParent(path string) (*Inode, string, error) {
	parent, leaf, kind, comp := f.walkParent(path)
	if kind != walkOK {
		return nil, "", walkError(kind, comp, path)
	}
	if len(leaf) > maxNameBytes {
		return nil, "", fmt.Errorf("%w: name of %d bytes, longer than %d", ErrBadPath, len(leaf), maxNameBytes)
	}
	return parent, leaf, nil
}

func (f *FS) now() sim.Time { return f.clock.Now() }

// scratchBlock returns the file system's reusable one-block buffer.
// ReadAt and WriteAt never nest, so a single buffer serves both.
func (f *FS) scratchBlock() []byte {
	bs := f.BlockBytes()
	if cap(f.blockBuf) < bs {
		f.blockBuf = make([]byte, bs)
	}
	return f.blockBuf[:bs]
}

// span opens an op span against the file system's clock and the DRAM
// device's energy meter.
func (f *FS) span(op string) obs.SpanRef {
	return f.obs.Span(f.clock, f.dram.Meter(), "fs", op)
}

// create makes a new inode under the parent.
// newInode returns a zeroed inode, reusing a recycled one when possible.
func (f *FS) newInode() *Inode {
	if n := len(f.inodeFree); n > 0 {
		node := f.inodeFree[n-1]
		f.inodeFree = f.inodeFree[:n-1]
		return node
	}
	return &Inode{}
}

func (f *FS) create(path string, kind Kind) (_ *Inode, err error) {
	parent, leaf, err := f.resolveParent(path)
	if err != nil {
		return nil, err
	}
	if _, ok := parent.Entries[leaf]; ok {
		return nil, fmt.Errorf("%w: %q", ErrExist, path)
	}
	sp := f.span("create")
	defer func() { sp.End(0, err) }()
	f.creates.Inc()
	ino := f.nextIno
	f.nextIno++
	node := f.newInode()
	node.Ino, node.Kind, node.Nlink, node.MtimeNs = ino, kind, 1, int64(f.now())
	if kind == KindDir {
		node.Entries = make(map[string]uint64)
	}
	f.order = addInode(f.inodes, f.order, node)
	parent.setEntry(leaf, ino)
	parent.MtimeNs = node.MtimeNs
	if err := f.journal(recCreate, ino, parent.Ino, uint64(kind), uint64(node.MtimeNs), leaf, ""); err != nil {
		return nil, err
	}
	return node, nil
}

// Create makes an empty file.
func (f *FS) Create(path string) error {
	_, err := f.create(path, KindFile)
	return err
}

// Mkdir makes an empty directory.
func (f *FS) Mkdir(path string) error {
	_, err := f.create(path, KindDir)
	return err
}

// MkdirAll makes the directory and any missing parents.
func (f *FS) MkdirAll(path string) error {
	parts, err := splitPath(path)
	if err != nil {
		return err
	}
	cur := "/"
	for _, p := range parts {
		cur = joinPath(cur, p)
		if err := f.Mkdir(cur); err != nil && !errors.Is(err, ErrExist) {
			return err
		}
	}
	return nil
}

func joinPath(dir, name string) string {
	if dir == "/" {
		return "/" + name
	}
	return dir + "/" + name
}

// Stat describes the object at path.
func (f *FS) Stat(path string) (Info, error) {
	node, err := f.resolve(path)
	if err != nil {
		return Info{}, err
	}
	name := "/"
	if parts, _ := splitPath(path); len(parts) > 0 {
		name = parts[len(parts)-1]
	}
	return Info{Name: name, Ino: node.Ino, Kind: node.Kind, Size: node.Size, Nlink: node.Nlink, Mtime: sim.Time(node.MtimeNs)}, nil
}

// ReadDir lists a directory in name order.
func (f *FS) ReadDir(path string) ([]Info, error) {
	node, err := f.resolve(path)
	if err != nil {
		return nil, err
	}
	if node.Kind != KindDir {
		return nil, fmt.Errorf("%w: %q", ErrNotDir, path)
	}
	ents := node.sortedEntries()
	out := make([]Info, 0, len(ents))
	for _, e := range ents {
		child := f.inodes[e.ino]
		out = append(out, Info{Name: e.name, Ino: child.Ino, Kind: child.Kind, Size: child.Size, Nlink: child.Nlink, Mtime: sim.Time(child.MtimeNs)})
	}
	return out, nil
}

// WriteAt writes data into the file at off, extending it as needed.
func (f *FS) WriteAt(path string, off int64, data []byte) (_ int, err error) {
	node, err := f.resolve(path)
	if err != nil {
		return 0, err
	}
	if node.Kind != KindFile {
		return 0, fmt.Errorf("%w: %q", ErrIsDir, path)
	}
	if err := checkExtent(off, len(data)); err != nil {
		return 0, err
	}
	bs := int64(f.BlockBytes())
	written := 0
	sp := f.span("write")
	defer func() { sp.End(int64(written), err) }()
	f.writes.Inc()
	defer func() { f.bytesWritten.Add(int64(written)) }()
	for written < len(data) {
		blk := (off + int64(written)) / bs
		blkOff := int((off + int64(written)) % bs)
		n := int(bs) - blkOff
		if n > len(data)-written {
			n = len(data) - written
		}
		key := storman.Key{Object: node.Ino, Block: blk}
		if blkOff == 0 && n == int(bs) {
			// Whole-block write: no read-modify-write needed.
			if err := f.sm.WriteBlock(key, data[written:written+n]); err != nil {
				return written, err
			}
		} else {
			// Assemble the block: existing contents, zero-extended to
			// cover the write, then the new bytes.
			buf := f.scratchBlock()
			got, err := f.sm.ReadBlock(key, buf)
			if err != nil {
				return written, err
			}
			// Zero the hole between the existing contents and the write
			// (the buffer is reused, so stale bytes must not leak in).
			for i := got; i < blkOff; i++ {
				buf[i] = 0
			}
			end := blkOff + n
			if got > end {
				end = got
			}
			copy(buf[blkOff:], data[written:written+n])
			if err := f.sm.WriteBlock(key, buf[:end]); err != nil {
				return written, err
			}
		}
		written += n
	}
	if end := off + int64(len(data)); end > node.Size {
		node.Size = end
	}
	node.MtimeNs = int64(f.now())
	if err := f.journal(recSetSize, node.Ino, uint64(node.Size), 0, uint64(node.MtimeNs), "", ""); err != nil {
		return written, err
	}
	return written, nil
}

// checkExtent rejects a transfer of n bytes at off whose start is
// negative or whose end is past what an int64 offset can address — the
// block arithmetic below would wrap and park bytes under indexes no read
// reaches.
func checkExtent(off int64, n int) error {
	if off < 0 {
		return fmt.Errorf("%w: negative offset", ErrBadPath)
	}
	if off > math.MaxInt64-int64(n) {
		return fmt.Errorf("%w: extent %d+%d overflows", ErrBadPath, off, n)
	}
	return nil
}

// Append writes data at the end of the file.
func (f *FS) Append(path string, data []byte) (int, error) {
	node, err := f.resolve(path)
	if err != nil {
		return 0, err
	}
	return f.WriteAt(path, node.Size, data)
}

// ReadAt reads up to len(buf) bytes from off; it returns the count read,
// which is short at end of file.
func (f *FS) ReadAt(path string, off int64, buf []byte) (_ int, err error) {
	node, err := f.resolve(path)
	if err != nil {
		return 0, err
	}
	if node.Kind != KindFile {
		return 0, fmt.Errorf("%w: %q", ErrIsDir, path)
	}
	if err := checkExtent(off, len(buf)); err != nil {
		return 0, err
	}
	if off >= node.Size {
		return 0, nil
	}
	want := int64(len(buf))
	if off+want > node.Size {
		want = node.Size - off
	}
	bs := int64(f.BlockBytes())
	read := int64(0)
	sp := f.span("read")
	defer func() { sp.End(read, err) }()
	f.reads.Inc()
	defer func() { f.bytesRead.Add(read) }()
	block := f.scratchBlock()
	for read < want {
		blk := (off + read) / bs
		blkOff := int((off + read) % bs)
		n := int(bs) - blkOff
		if int64(n) > want-read {
			n = int(want - read)
		}
		got, err := f.sm.ReadBlock(storman.Key{Object: node.Ino, Block: blk}, block)
		if err != nil {
			return int(read), err
		}
		// Zero-fill holes and short blocks.
		if got < blkOff+n {
			clear(block[got : blkOff+n])
		}
		copy(buf[read:read+int64(n)], block[blkOff:blkOff+n])
		read += int64(n)
	}
	return int(read), nil
}

// ReadFile reads the whole file.
func (f *FS) ReadFile(path string) ([]byte, error) {
	node, err := f.resolve(path)
	if err != nil {
		return nil, err
	}
	if node.Kind != KindFile {
		return nil, fmt.Errorf("%w: %q", ErrIsDir, path)
	}
	buf := make([]byte, node.Size)
	n, err := f.ReadAt(path, 0, buf)
	return buf[:n], err
}

// WriteFile replaces the file's contents (creating it if absent).
func (f *FS) WriteFile(path string, data []byte) error {
	if _, err := f.resolve(path); errors.Is(err, ErrNotExist) {
		if err := f.Create(path); err != nil {
			return err
		}
	} else if err != nil {
		return err
	}
	if err := f.Truncate(path, 0); err != nil {
		return err
	}
	_, err := f.WriteAt(path, 0, data)
	return err
}

// Truncate sets the file's size, dropping blocks past the new end.
func (f *FS) Truncate(path string, size int64) error {
	node, err := f.resolve(path)
	if err != nil {
		return err
	}
	if node.Kind != KindFile {
		return fmt.Errorf("%w: %q", ErrIsDir, path)
	}
	if size < 0 {
		return fmt.Errorf("%w: negative size", ErrBadPath)
	}
	if size < node.Size {
		// Walk the blocks the object has, not the index range of its old
		// length: growing is free, so the length can be far past them.
		bs := int64(f.BlockBytes())
		if err := f.sm.DeleteBlocksFrom(node.Ino, (size+bs-1)/bs); err != nil {
			return err
		}
		if size%bs != 0 {
			if err := f.sm.TruncateBlock(storman.Key{Object: node.Ino, Block: size / bs}, int(size%bs)); err != nil {
				return err
			}
		}
	}
	node.Size = size
	node.MtimeNs = int64(f.now())
	return f.journal(recSetSize, node.Ino, uint64(node.Size), 0, uint64(node.MtimeNs), "", "")
}

// Link creates a hard link: newPath names the same inode as oldPath,
// which must be a file. Data is freed only when the last link goes.
func (f *FS) Link(oldPath, newPath string) error {
	node, err := f.resolve(oldPath)
	if err != nil {
		return err
	}
	if node.Kind != KindFile {
		return fmt.Errorf("%w: %q", ErrIsDir, oldPath)
	}
	parent, leaf, err := f.resolveParent(newPath)
	if err != nil {
		return err
	}
	if _, exists := parent.Entries[leaf]; exists {
		return fmt.Errorf("%w: %q", ErrExist, newPath)
	}
	parent.setEntry(leaf, node.Ino)
	node.Nlink++
	parent.MtimeNs = int64(f.now())
	return f.journal(recLink, node.Ino, parent.Ino, 0, uint64(parent.MtimeNs), leaf, "")
}

// Remove deletes a name: a file link (the inode and data go when the
// last link is removed) or an empty directory.
func (f *FS) Remove(path string) (err error) {
	parent, leaf, err := f.resolveParent(path)
	if err != nil {
		return err
	}
	ino, ok := parent.Entries[leaf]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotExist, path)
	}
	sp := f.span("remove")
	defer func() { sp.End(0, err) }()
	f.removes.Inc()
	node := f.inodes[ino]
	if node.Kind == KindDir && len(node.Entries) > 0 {
		return fmt.Errorf("%w: %q", ErrNotEmpty, path)
	}
	node.Nlink--
	parent.delEntry(leaf)
	if node.Nlink <= 0 {
		if node.Kind == KindFile {
			if err := f.sm.DeleteObject(ino); err != nil {
				return err
			}
		}
		f.order = dropInode(f.inodes, f.order, ino)
		*node = Inode{}
		f.inodeFree = append(f.inodeFree, node)
	}
	parent.MtimeNs = int64(f.now())
	return f.journal(recRemove, ino, parent.Ino, 0, uint64(parent.MtimeNs), leaf, "")
}

// Rename moves a file or directory to a new path, which must not exist.
func (f *FS) Rename(oldPath, newPath string) error {
	oldParent, oldLeaf, err := f.resolveParent(oldPath)
	if err != nil {
		return err
	}
	ino, ok := oldParent.Entries[oldLeaf]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotExist, oldPath)
	}
	newParent, newLeaf, err := f.resolveParent(newPath)
	if err != nil {
		return err
	}
	if _, exists := newParent.Entries[newLeaf]; exists {
		return fmt.Errorf("%w: %q", ErrExist, newPath)
	}
	oldParent.delEntry(oldLeaf)
	newParent.setEntry(newLeaf, ino)
	now := int64(f.now())
	oldParent.MtimeNs, newParent.MtimeNs = now, now
	return f.journal(recRename, ino, oldParent.Ino, newParent.Ino, uint64(now), oldLeaf, newLeaf)
}

// Exists reports whether the path resolves.
func (f *FS) Exists(path string) bool {
	_, kind, _ := f.walk(path)
	return kind == walkOK
}

// NumInodes reports the live inode count (including the root).
func (f *FS) NumInodes() int { return len(f.inodes) }
