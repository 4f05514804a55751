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

	// Kept for the snapshot encoder (snapcodec.go).
	enc  inodeEnc // this inode as the snapshot holds it, up to its entries
	ents []dirEnt // Entries in name order

	gen uint64 // see Gen; kept across the free list's recycling
}

// Gen reports the inode's generation. It advances whenever a path that
// reached the inode goes away: a Remove of any of its links, a Rename of
// it or of a directory above it. A node and the generation it had when
// looked up are therefore a handle: while Gen still reports that value,
// the path the node was found by still leads to it, and once the node is
// freed and recycled for another name its generation has moved on.
func (n *Inode) Gen() uint64 { return n.gen }

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
	// RBoxBytes sizes the recovery-box region, which starts at DRAM
	// offset 0. Zero bytes disables the recovery box (no crash
	// protection).
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
	root    *Inode   // inodes[RootIno], where every walk starts; never removed

	rbox *rbox

	// ckpt is where the flash checkpoint stands, and pending the log
	// frame the next one will seal: ckptHeaderBytes of header, then every
	// record journalled since the last checkpoint (see checkpoint.go).
	ckpt    ckptState
	pending []byte

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
		root:         st.Inodes[RootIno],
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

// walkErrKind classifies a path-walk failure without formatting an error,
// so probe callers (Exists, Lookup) pay nothing on the miss path; resolve
// formats the kind into the public error values.
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

// validatePath checks the path shape — absolute, no ".." anywhere —
// before any component is resolved, so malformed paths report ErrBadPath
// even when an earlier component is missing. Empty and "." components
// name nothing and are skipped.
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

// walk resolves path to an inode without allocating: the parent, then
// the leaf in it.
func (f *FS) walk(path string) (*Inode, walkErrKind, string) {
	parent, leaf, kind, comp := f.walkParent(path)
	if kind == walkNoParent {
		return f.root, walkOK, ""
	} else if kind != walkOK {
		return nil, kind, comp
	}
	node, kind := f.child(parent, leaf)
	return node, kind, leaf
}

// child resolves one directory entry; a nil dir holds nothing.
func (f *FS) child(dir *Inode, name string) (*Inode, walkErrKind) {
	if dir == nil || dir.Kind != KindDir {
		return nil, walkNotDir
	}
	ino, ok := dir.Entries[name]
	if !ok {
		return nil, walkNotExist
	}
	if node := f.inodes[ino]; node != nil {
		return node, walkOK
	}
	return nil, walkDangling
}

// walkParent resolves path's parent directory and leaf name without
// allocating.
func (f *FS) walkParent(path string) (*Inode, string, walkErrKind, string) {
	if kind := validatePath(path); kind != walkOK {
		return nil, "", kind, ""
	}
	cur := f.root
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
			var kind walkErrKind
			if cur, kind = f.child(cur, leaf); kind != walkOK {
				return nil, "", kind, leaf
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

// resolveFile resolves path to a file, refusing a directory with the
// path in the error.
func (f *FS) resolveFile(path string) (*Inode, error) {
	node, err := f.resolve(path)
	if err != nil {
		return nil, err
	}
	if node.Kind != KindFile {
		return nil, fmt.Errorf("%w: %q", ErrIsDir, path)
	}
	return node, nil
}

// checkFile refuses an inode-addressed data op on a directory.
func checkFile(node *Inode) error {
	if node.Kind != KindFile {
		return fmt.Errorf("%w: inode %d", ErrIsDir, node.Ino)
	}
	return nil
}

// resolveParent walks to the parent directory of path and returns it with
// the leaf name, refused here, before any mutation, if checkName would.
func (f *FS) resolveParent(path string) (*Inode, string, error) {
	parent, leaf, kind, comp := f.walkParent(path)
	if kind != walkOK {
		return nil, "", walkError(kind, comp, path)
	}
	if err := checkName(leaf); err != nil {
		return nil, "", err
	}
	return parent, leaf, nil
}

// checkName refuses an entry name no path could name, or one too long for
// a journal record. Every entry is made or renamed under a name that came
// through here.
func checkName(name string) error {
	if len(name) > maxNameBytes || name == "" || name == "." || name == ".." || strings.Contains(name, "/") {
		return fmt.Errorf("%w: entry name %.64q (%d bytes)", ErrBadPath, name, len(name))
	}
	return nil
}

// pathErr names path in the bare sentinel a leaf-addressed entry point
// (CreateAt, RemoveAt) returns, so the path forms built on them keep
// their messages; any other error passes through.
func pathErr(err error, path string) error {
	switch err {
	case ErrExist, ErrNotExist, ErrNotDir, ErrNotEmpty:
		return fmt.Errorf("%w: %q", err, path)
	}
	return err
}

func (f *FS) now() sim.Time { return f.clock.Now() }

// span opens an op span against the file system's clock and the DRAM
// device's energy meter.
func (f *FS) span(op string) obs.SpanRef {
	return f.obs.Span(f.clock, f.dram.Meter(), "fs", op)
}

// newInode returns a zeroed inode, reusing a recycled one when possible.
func (f *FS) newInode() *Inode {
	if n := len(f.inodeFree); n > 0 {
		node := f.inodeFree[n-1]
		f.inodeFree = f.inodeFree[:n-1]
		return node
	}
	return &Inode{}
}

// create makes a new inode at path.
func (f *FS) create(path string, kind Kind) (*Inode, error) {
	parent, leaf, err := f.resolveParent(path)
	if err != nil {
		return nil, err
	}
	node, err := f.CreateAt(parent, leaf, kind)
	return node, pathErr(err, path)
}

// CreateAt makes an empty file or directory named leaf in the directory
// parent and returns it: Create or Mkdir without the walk, for a caller
// holding parent as a handle (see Gen).
func (f *FS) CreateAt(parent *Inode, leaf string, kind Kind) (_ *Inode, err error) {
	if parent == nil || parent.Kind != KindDir {
		return nil, ErrNotDir
	}
	if err := checkName(leaf); err != nil {
		return nil, err
	}
	if _, ok := parent.Entries[leaf]; ok {
		return nil, ErrExist
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

// MkdirAll makes the directory and any missing parents: a Mkdir of each
// prefix of path that ends in a component.
func (f *FS) MkdirAll(path string) error {
	if kind := validatePath(path); kind != walkOK {
		return walkError(kind, "", path)
	}
	for i, start := 1, 1; i <= len(path); i++ {
		if i < len(path) && path[i] != '/' {
			continue
		}
		if c := path[start:i]; c != "" && c != "." {
			if err := f.Mkdir(path[:i]); err != nil && !errors.Is(err, ErrExist) {
				return err
			}
		}
		start = i + 1
	}
	return nil
}

// Stat describes the object at path.
func (f *FS) Stat(path string) (Info, error) {
	node, err := f.resolve(path)
	if err != nil {
		return Info{}, err
	}
	name := "/"
	if _, leaf, kind, _ := f.walkParent(path); kind == walkOK {
		name = leaf
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
func (f *FS) WriteAt(path string, off int64, data []byte) (int, error) {
	node, err := f.resolveFile(path)
	if err != nil {
		return 0, err
	}
	return f.WriteAtInode(node, off, data)
}

// WriteAtInode is WriteAt on a file Lookup returned.
func (f *FS) WriteAtInode(node *Inode, off int64, data []byte) (_ int, err error) {
	if err := checkFile(node); err != nil {
		return 0, err
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
		if err := f.sm.WriteBlockAt(storman.Key{Object: node.Ino, Block: blk}, blkOff, data[written:written+n]); err != nil {
			return written, err
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
	node, err := f.resolveFile(path)
	if err != nil {
		return 0, err
	}
	return f.WriteAtInode(node, node.Size, data)
}

// ReadAt reads up to len(buf) bytes from off; it returns the count read,
// which is short at end of file.
func (f *FS) ReadAt(path string, off int64, buf []byte) (int, error) {
	node, err := f.resolveFile(path)
	if err != nil {
		return 0, err
	}
	return f.ReadAtInode(node, off, buf)
}

// ReadAtInode is ReadAt on a file Lookup returned.
func (f *FS) ReadAtInode(node *Inode, off int64, buf []byte) (int, error) {
	if err := checkFile(node); err != nil {
		return 0, err
	}
	if err := checkExtent(off, len(buf)); err != nil {
		return 0, err
	}
	if off >= node.Size {
		return 0, nil
	}
	want := min(int64(len(buf)), node.Size-off)
	sp := f.span("read")
	f.reads.Inc()
	// Holes and the bytes past a short block read as zero.
	if err := f.sm.ReadAt(node.Ino, off, buf[:want]); err != nil {
		sp.End(0, err)
		return 0, err
	}
	f.bytesRead.Add(want)
	sp.End(want, nil)
	return int(want), nil
}

// ReadFile reads the whole file.
func (f *FS) ReadFile(path string) ([]byte, error) {
	node, err := f.resolveFile(path)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, node.Size)
	n, err := f.ReadAtInode(node, 0, buf)
	return buf[:n], err
}

// WriteFile replaces the file's contents (creating it if absent).
func (f *FS) WriteFile(path string, data []byte) error {
	node, err := f.resolveFile(path)
	if errors.Is(err, ErrNotExist) {
		node, err = f.create(path, KindFile)
	}
	if err != nil {
		return err
	}
	if err := f.TruncateInode(node, 0); err != nil {
		return err
	}
	_, err = f.WriteAtInode(node, 0, data)
	return err
}

// Truncate sets the file's size, dropping blocks past the new end.
func (f *FS) Truncate(path string, size int64) error {
	node, err := f.resolveFile(path)
	if err != nil {
		return err
	}
	return f.TruncateInode(node, size)
}

// TruncateInode is Truncate on a file Lookup returned.
func (f *FS) TruncateInode(node *Inode, size int64) error {
	if err := checkFile(node); err != nil {
		return err
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
	node, err := f.resolveFile(oldPath)
	if err != nil {
		return err
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
func (f *FS) Remove(path string) error {
	parent, leaf, err := f.resolveParent(path)
	if err != nil {
		return err
	}
	return pathErr(f.RemoveAt(parent, leaf), path)
}

// RemoveAt is Remove of the entry name in the directory dir, without the
// walk. A missing name costs one entry lookup and returns ErrNotExist
// itself, unformatted.
func (f *FS) RemoveAt(dir *Inode, name string) (err error) {
	node, kind := f.child(dir, name)
	if kind != walkOK {
		return ErrNotExist
	}
	sp := f.span("remove")
	defer func() { sp.End(0, err) }()
	f.removes.Inc()
	ino := node.Ino
	if node.Kind == KindDir && len(node.Entries) > 0 {
		return ErrNotEmpty
	}
	node.Nlink--
	node.gen++
	dir.delEntry(name)
	if node.Nlink <= 0 {
		if node.Kind == KindFile {
			if err := f.sm.DeleteObject(ino); err != nil {
				return err
			}
		}
		f.order = dropInode(f.inodes, f.order, ino)
		*node = Inode{gen: node.gen}
		f.inodeFree = append(f.inodeFree, node)
	}
	dir.MtimeNs = int64(f.now())
	return f.journal(recRemove, ino, dir.Ino, 0, uint64(dir.MtimeNs), name, "")
}

// Rename moves a file or directory to a new path, which must not exist
// and must not lie under the old one.
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
	if f.holds(f.inodes[ino], newParent) {
		return fmt.Errorf("%w: %q lies under %q", ErrBadPath, newPath, oldPath)
	}
	if _, exists := newParent.Entries[newLeaf]; exists {
		return fmt.Errorf("%w: %q", ErrExist, newPath)
	}
	f.bumpGen(f.inodes[ino]) // before the move, while the subtree is still a tree
	oldParent.delEntry(oldLeaf)
	newParent.setEntry(newLeaf, ino)
	now := int64(f.now())
	oldParent.MtimeNs, newParent.MtimeNs = now, now
	return f.journal(recRename, ino, oldParent.Ino, newParent.Ino, uint64(now), oldLeaf, newLeaf)
}

// holds reports whether dir is node or lies below it: moving node into
// dir would cut the subtree off the root and make it its own ancestor.
func (f *FS) holds(node, dir *Inode) bool {
	if node == nil || node == dir {
		return node == dir
	}
	for _, ino := range node.Entries {
		if f.holds(f.inodes[ino], dir) {
			return true
		}
	}
	return false
}

// bumpGen advances the generation of node and of everything below it: a
// rename takes away every path that reached them.
func (f *FS) bumpGen(node *Inode) {
	if node == nil {
		return
	}
	node.gen++
	for _, ino := range node.Entries {
		f.bumpGen(f.inodes[ino])
	}
}

// LookupAt resolves the entry name in the directory dir, as Lookup does
// a path: one entry lookup, no allocation and no error on a miss.
func (f *FS) LookupAt(dir *Inode, name string) (*Inode, bool) {
	node, kind := f.child(dir, name)
	return node, kind == walkOK
}

// Exists reports whether the path resolves.
func (f *FS) Exists(path string) bool {
	_, kind, _ := f.walk(path)
	return kind == walkOK
}

// Lookup resolves path to its inode in one walk that allocates nothing
// and formats no error on a miss, so a caller can resolve its object
// once and hand the node to ReadAtInode, WriteAtInode or TruncateInode.
//
// A caller may keep the node beside its Gen and use it for as long as
// Gen still reports that value: until then path leads to the node. Once
// Gen has moved, the node may have been freed, or recycled for another
// name, and the caller must look path up again. A restart builds a new
// FS, whose nodes no handle to the old one can match.
func (f *FS) Lookup(path string) (*Inode, bool) {
	node, kind, _ := f.walk(path)
	return node, kind == walkOK
}

// NumInodes reports the live inode count (including the root).
func (f *FS) NumInodes() int { return len(f.inodes) }
