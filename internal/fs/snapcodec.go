package fs

// The metadata snapshot's format, encoder and decoder.
//
// The snapshot (snapshotState) is encoded on every journal rollover and
// every image checkpoint, and decoded by the two recoveries. The format is
// this file's own; its holders — the recovery box's header, the flash
// image's — carry the length and the CRC, so the body has no frame, no
// version and no type description:
//
//	state   uvarint NextIno
//	        uvarint number of inodes
//	        inode…  in strictly ascending Ino order
//	inode   uvarint Ino
//	        uvarint Kind
//	        varint  Size
//	        varint  Nlink
//	        varint  MtimeNs
//	        uvarint 0: Entries is nil; 1: it is not, and there follow
//	        uvarint number of entries
//	        entry…  in strictly ascending name order
//	entry   uvarint name length, the name's bytes, uvarint Ino
//
// (varints as encoding/binary writes them). The length matters beyond
// the host: the bytes are written to the simulated DRAM device and to
// flash, whose charged time and energy follow it.
//
// A snapshot of N inodes differs from the previous one in a handful of
// bytes, so the encoder does not walk the maps. Three things are kept
// current as the file system mutates, and an encode concatenates them:
//
//   - the inodes in Ino order (FS.order): inos are handed out
//     monotonically, so a create appends and a last unlink is one
//     binary-search delete;
//   - each directory's entries in name order (Inode.ents) and their
//     encoding (Inode.enc.ents) beside its Entries map. setEntry and
//     delEntry are the only writers of any of the three, and splice the
//     one entry in or out of each;
//   - each inode's encoding up to its entries (Inode.enc.elem), together
//     with the values it was encoded from.
//
// Nothing needs invalidating. The scalars are validated BY VALUE at
// encode time (five integer compares), so no mutator has to remember
// them; a directory's entries cannot change except through the two
// methods that keep their encoding. State that was not built by the FS —
// a literal in a test, a decoded directory — simply has none of this yet,
// which shows (an order of the wrong length, an inodeEnc with no bytes)
// and is made good by one sort and one encode: cold and warm are the same
// code and produce the same bytes.
//
// The decoder reads bytes that came back from DRAM or flash under a
// matching CRC, so what it refuses is a writer's bug or a collision, and
// it refuses all of it rather than build a tree the file system's
// invariants do not hold for: a count or a length larger than the bytes
// that remain could hold (checked before anything is allocated for it),
// inodes or names out of order or repeated, a flag that is neither 0 nor
// 1, a field that does not fit its type, bytes left over.

import (
	"cmp"
	"encoding/binary"
	"errors"
	"math/bits"
	"slices"
	"strings"
)

type snapshotState struct {
	NextIno uint64
	Inodes  map[uint64]*Inode // by Ino

	// order is Inodes in Ino order when the holder keeps one (the FS does,
	// and so does replay over a decoded state); without it the encoder
	// sorts. Not part of the format.
	order []*Inode
}

// inoOrder returns the state's inodes in Ino order.
func (st snapshotState) inoOrder() []*Inode {
	if len(st.order) == len(st.Inodes) {
		return st.order
	}
	order := make([]*Inode, 0, len(st.Inodes))
	for _, node := range st.Inodes {
		order = append(order, node)
	}
	slices.SortFunc(order, func(a, b *Inode) int { return cmp.Compare(a.Ino, b.Ino) })
	return order
}

func searchOrder(order []*Inode, ino uint64) (int, bool) {
	return slices.BinarySearchFunc(order, ino, func(n *Inode, ino uint64) int { return cmp.Compare(n.Ino, ino) })
}

// addInode and dropInode are the only writers of an Inodes map that has a
// kept order, and keep the two in step.
func addInode(inodes map[uint64]*Inode, order []*Inode, node *Inode) []*Inode {
	inodes[node.Ino] = node
	i, found := searchOrder(order, node.Ino)
	if found {
		order[i] = node
		return order
	}
	return slices.Insert(order, i, node) // inos only grow: nearly always an append
}

func dropInode(inodes map[uint64]*Inode, order []*Inode, ino uint64) []*Inode {
	delete(inodes, ino)
	if i, found := searchOrder(order, ino); found {
		order = slices.Delete(order, i, i+1)
	}
	return order
}

// uvarintLen is the number of bytes binary.AppendUvarint writes for v.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// dirEnt is one directory entry in the name order the snapshot encodes.
type dirEnt struct {
	name string
	ino  uint64
}

func searchEnts(ents []dirEnt, name string) (int, bool) {
	return slices.BinarySearchFunc(ents, name, func(e dirEnt, name string) int { return strings.Compare(e.name, name) })
}

// appendTo appends the entry as the snapshot holds it.
func (e dirEnt) appendTo(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(e.name)))
	return binary.AppendUvarint(append(dst, e.name...), e.ino)
}

// encLen is the number of bytes appendTo writes.
func (e dirEnt) encLen() int {
	return uvarintLen(uint64(len(e.name))) + len(e.name) + uvarintLen(e.ino)
}

// encOffset is where entry i's encoding starts in the encoded entries.
func encOffset(ents []dirEnt, i int) (at int) {
	for _, before := range ents[:i] {
		at += before.encLen()
	}
	return at
}

// sortedEntries returns the directory's entries in name order. A
// directory whose Entries were not written through setEntry/delEntry
// (decoded from a snapshot, or a test literal) has no kept order or
// encoding yet, which the lengths show; both are built here, by one sort.
func (d *Inode) sortedEntries() []dirEnt {
	if len(d.ents) != len(d.Entries) {
		d.ents, d.enc.ents = d.ents[:0], d.enc.ents[:0]
		for name, ino := range d.Entries {
			d.ents = append(d.ents, dirEnt{name, ino})
		}
		slices.SortFunc(d.ents, func(a, b dirEnt) int { return strings.Compare(a.name, b.name) })
		for _, e := range d.ents {
			d.enc.ents = e.appendTo(d.enc.ents)
		}
	}
	return d.ents
}

// setEntry points name at ino. With delEntry it is the only writer of
// Entries: both keep the name order and the encoded entries in step with
// the map, by splicing the one entry in or out.
func (d *Inode) setEntry(name string, ino uint64) {
	d.delEntry(name) // leaves the kept order built
	i, _ := searchEnts(d.ents, name)
	e := dirEnt{name, ino}
	at, n := encOffset(d.ents, i), e.encLen()
	d.enc.ents = slices.Grow(d.enc.ents, n)[:len(d.enc.ents)+n]
	copy(d.enc.ents[at+n:], d.enc.ents[at:])
	e.appendTo(d.enc.ents[:at])
	d.ents = slices.Insert(d.ents, i, e)
	d.Entries[name] = ino
}

// delEntry removes name, if present.
func (d *Inode) delEntry(name string) {
	ents := d.sortedEntries()
	if i, found := searchEnts(ents, name); found {
		at := encOffset(ents, i)
		d.enc.ents = slices.Delete(d.enc.ents, at, at+ents[i].encLen())
		d.ents = slices.Delete(ents, i, i+1)
		delete(d.Entries, name)
	}
}

// inodeEnc is the kept encoding of one inode.
type inodeEnc struct {
	// The inode as the snapshot holds it when Entries is nil — the five
	// scalars and a zero flag, at most 10+2+10+10+10+1 bytes — with the
	// values that was built from.
	elem    [43]byte
	n       uint8 // bytes of elem in use; 0: not built yet
	ino     uint64
	kind    Kind
	size    int64
	nlink   int
	mtimeNs int64

	// The entries as the snapshot holds them, in name order (the count
	// that precedes them is not kept).
	ents []byte
}

// encode rebuilds elem for node.
func (c *inodeEnc) encode(node *Inode) {
	b := binary.AppendUvarint(c.elem[:0], node.Ino)
	b = binary.AppendUvarint(b, uint64(node.Kind))
	b = binary.AppendVarint(b, node.Size)
	b = binary.AppendVarint(b, int64(node.Nlink))
	b = append(binary.AppendVarint(b, node.MtimeNs), 0) // the flag: no entries
	c.n = uint8(len(b))
	c.ino, c.kind, c.size, c.nlink, c.mtimeNs = node.Ino, node.Kind, node.Size, node.Nlink, node.MtimeNs
}

// appendInode appends one inode.
func appendInode(dst []byte, node *Inode) []byte {
	c := &node.enc
	if c.n == 0 || c.ino != node.Ino || c.kind != node.Kind || c.size != node.Size || c.nlink != node.Nlink || c.mtimeNs != node.MtimeNs {
		c.encode(node)
	}
	// This runs once per inode per snapshot, nearly always for an inode
	// that did not change: store the whole array (a fixed-size copy the
	// compiler expands in line) and keep the part in use, rather than
	// call memmove for a variable few dozen bytes.
	dst = slices.Grow(dst, len(c.elem))
	at := len(dst)
	*(*[len(c.elem)]byte)(dst[at : at+len(c.elem)]) = c.elem
	// An empty non-nil map is not a nil one: replay writes into the
	// directory maps a decode hands back.
	if node.Entries == nil {
		return dst[:at+int(c.n)]
	}
	ents := node.sortedEntries()
	dst = append(dst[:at+int(c.n)-1], 1)
	dst = binary.AppendUvarint(dst, uint64(len(ents)))
	return append(dst, c.ents...)
}

// appendState appends the snapshot encoding of st to dst.
func appendState(dst []byte, st snapshotState) []byte {
	dst = binary.AppendUvarint(dst, st.NextIno)
	dst = binary.AppendUvarint(dst, uint64(len(st.Inodes)))
	for _, node := range st.inoOrder() {
		dst = appendInode(dst, node)
	}
	return dst
}

func encodeState(st snapshotState) []byte { return appendState(nil, st) }

// snapReader consumes a snapshot encoding. The first fault sticks: every
// read after it returns zero and leaves err as it was.
type snapReader struct {
	p   []byte
	err error
}

func (r *snapReader) fail(what string) {
	if r.err == nil {
		r.p, r.err = nil, errors.New("snapshot: "+what)
	}
}

func (r *snapReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.p)
	if n <= 0 {
		r.fail("truncated or overlong integer")
		return 0
	}
	r.p = r.p[n:]
	return v
}

func (r *snapReader) varint() int64 {
	v, n := binary.Varint(r.p)
	if n <= 0 {
		r.fail("truncated or overlong integer")
		return 0
	}
	r.p = r.p[n:]
	return v
}

// count reads how many items of at least each bytes follow, and refuses
// more than the bytes that remain could hold: the caller allocates for
// what it returns.
func (r *snapReader) count(each int) int {
	n := r.uvarint()
	if n > uint64(len(r.p)/each) {
		r.fail("count past the end of the data")
		return 0
	}
	return int(n)
}

func (r *snapReader) name() string {
	n := r.count(1)
	s := string(r.p[:n])
	r.p = r.p[n:]
	return s
}

// Every inode takes at least its five scalars and its flag, every entry a
// name length and an ino.
const (
	minInodeBytes = 6
	minEntryBytes = 2
)

func (r *snapReader) inode() *Inode {
	node := &Inode{Ino: r.uvarint()}
	kind, size, nlink, mtime := r.uvarint(), r.varint(), r.varint(), r.varint()
	node.Kind, node.Size, node.Nlink, node.MtimeNs = Kind(kind), size, int(nlink), mtime
	if uint64(node.Kind) != kind || int64(node.Nlink) != nlink {
		r.fail("inode field out of range")
	}
	switch r.uvarint() {
	case 0:
	case 1:
		n := r.count(minEntryBytes)
		node.Entries = make(map[string]uint64, n)
		for i, prev := 0, ""; i < n && r.err == nil; i++ {
			name := r.name()
			if i > 0 && name <= prev {
				r.fail("entries out of order")
			}
			node.Entries[name], prev = r.uvarint(), name
		}
	default:
		r.fail("entries flag neither 0 nor 1")
	}
	return node
}

// decodeState is appendState's inverse. The state it returns carries the
// Ino order it was read in.
func decodeState(p []byte) (snapshotState, error) {
	r := snapReader{p: p}
	st := snapshotState{NextIno: r.uvarint()}
	n := r.count(minInodeBytes)
	st.Inodes, st.order = make(map[uint64]*Inode, n), make([]*Inode, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		node := r.inode()
		if i > 0 && node.Ino <= st.order[i-1].Ino {
			r.fail("inodes out of order")
		}
		st.Inodes[node.Ino] = node
		st.order = append(st.order, node)
	}
	if len(r.p) > 0 {
		r.fail("trailing bytes")
	}
	return st, r.err
}
