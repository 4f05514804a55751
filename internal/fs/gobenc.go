package fs

// Hand-rolled, incrementally kept gob encoding of the metadata snapshot.
//
// The snapshot (snapshotState) is encoded on every journal rollover and
// every checkpoint. Its wire format is encoding/gob's, and two things
// about it are load-bearing. The bytes must decode with encoding/gob
// (decodeState is plain gob, and older recovery boxes must keep
// decoding). And the byte LENGTH must be exactly gob's, because the
// snapshot is written to the simulated DRAM device and to flash, whose
// charged latency depends on length — a different length would shift
// virtual time and change every experiment's output. Gob's only wire
// freedom is map iteration order, which never changes the length; this
// encoder fixes it to sorted keys, so snapshot bytes are deterministic.
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
//   - each inode's encoding as an element of the Inodes map
//     (Inode.enc.elem): key and scalar fields, together with the values
//     they were encoded from.
//
// Nothing needs invalidating. The scalars are validated BY VALUE at
// encode time (six integer compares), so no mutator has to remember
// them; a directory's entries cannot change except through the two
// methods that keep their encoding. State that was not built by the FS —
// a freshly decoded recovery image, a literal in a test — simply has
// none of this yet, which shows (an order of the wrong length, an
// inodeEnc with no bytes) and is made good by one sort and one encode:
// cold and warm are the same code and produce the same bytes.
//
// The type-descriptor prefix is not synthesised: it is captured once
// per process from a real gob encode of a dummy value, and the hand
// encoding of that dummy is compared byte-for-byte against gob's
// output. If the self-check ever fails (say a future Go release changes
// a wire detail), appendState falls back to real gob — correctness is
// never on the line, only the host cost.

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync"
)

// gobUintLen is the number of bytes appendGobUint writes for v.
func gobUintLen(v uint64) int {
	if v < 128 {
		return 1
	}
	return 1 + (bits.Len64(v)+7)/8
}

// appendGobUint appends gob's unsigned-integer encoding: values below
// 128 are one byte; larger values are minimal big-endian bytes preceded
// by the negated byte count.
func appendGobUint(dst []byte, v uint64) []byte {
	if v < 128 {
		return append(dst, byte(v))
	}
	n := gobUintLen(v) - 1
	var tmp [9]byte
	tmp[0] = byte(-n)
	binary.BigEndian.PutUint64(tmp[1:], v<<(64-8*n))
	return append(dst, tmp[:1+n]...)
}

// appendGobInt appends gob's signed-integer encoding (low bit is the
// sign, the rest the complemented-or-plain magnitude).
func appendGobInt(dst []byte, i int64) []byte {
	var x uint64
	if i < 0 {
		x = uint64(^i<<1) | 1
	} else {
		x = uint64(i << 1)
	}
	return appendGobUint(dst, x)
}

func appendGobString(dst []byte, s string) []byte {
	dst = appendGobUint(dst, uint64(len(s)))
	return append(dst, s...)
}

// readGobUint decodes one gob unsigned integer, returning the value and
// bytes consumed (0 on malformed input).
func readGobUint(p []byte) (uint64, int) {
	if len(p) == 0 {
		return 0, 0
	}
	b := p[0]
	if b < 128 {
		return uint64(b), 1
	}
	n := -int(int8(b))
	if n > 8 || len(p) < 1+n {
		return 0, 0
	}
	var v uint64
	for _, c := range p[1 : 1+n] {
		v = v<<8 | uint64(c)
	}
	return v, 1 + n
}

// inoSlot is one inode in the Ino order the snapshot encodes.
type inoSlot struct {
	ino  uint64
	node *Inode
}

// inoOrder returns the map's inodes in key order.
func inoOrder(inodes map[uint64]*Inode) []inoSlot {
	order := make([]inoSlot, 0, len(inodes))
	for ino, node := range inodes {
		order = append(order, inoSlot{ino, node})
	}
	slices.SortFunc(order, func(a, b inoSlot) int { return cmp.Compare(a.ino, b.ino) })
	return order
}

// dirEnt is one directory entry in the name order the snapshot encodes.
type dirEnt struct {
	name string
	ino  uint64
}

func searchEnts(ents []dirEnt, name string) (int, bool) {
	return slices.BinarySearchFunc(ents, name, func(e dirEnt, name string) int { return strings.Compare(e.name, name) })
}

// appendTo appends the entry as gob sends a map[string]uint64 element.
func (e dirEnt) appendTo(dst []byte) []byte {
	return appendGobUint(appendGobString(dst, e.name), e.ino)
}

// encLen is the number of bytes appendTo writes.
func (e dirEnt) encLen() int {
	return gobUintLen(uint64(len(e.name))) + len(e.name) + gobUintLen(e.ino)
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

// inodeEnc is the kept gob encoding of one element of the snapshot's
// Inodes map.
type inodeEnc struct {
	// The element as gob sends it when the inode has no Entries — the map
	// key, then the struct: (field delta, value) for each non-zero scalar
	// field and the zero delta that ends it — with the values that was
	// built from. At most 9 key bytes + 5 deltas + 9+2+9+9+9 value bytes
	// + 1.
	elem     [54]byte
	n        uint8 // bytes of elem in use; 0: not built yet
	entDelta uint8 // the field delta Entries (field 5) is sent with: 5 less the last scalar field sent
	key      uint64
	ino      uint64
	kind     Kind
	size     int64
	nlink    int
	mtimeNs  int64

	// The Entries map's elements as gob sends them, each name and ino in
	// name order (the count that precedes them is not kept).
	ents []byte
}

// encode rebuilds elem for node under key.
func (c *inodeEnc) encode(key uint64, node *Inode) {
	b := appendGobUint(c.elem[:0], key)
	prev := -1
	field := func(idx int) {
		b = appendGobUint(b, uint64(idx-prev))
		prev = idx
	}
	if node.Ino != 0 {
		field(0)
		b = appendGobUint(b, node.Ino)
	}
	if node.Kind != 0 {
		field(1)
		b = appendGobUint(b, uint64(node.Kind))
	}
	if node.Size != 0 {
		field(2)
		b = appendGobInt(b, node.Size)
	}
	if node.Nlink != 0 {
		field(3)
		b = appendGobInt(b, int64(node.Nlink))
	}
	if node.MtimeNs != 0 {
		field(4)
		b = appendGobInt(b, node.MtimeNs)
	}
	b = append(b, 0)
	c.n, c.entDelta = uint8(len(b)), uint8(5-prev)
	c.key, c.ino, c.kind, c.size, c.nlink, c.mtimeNs = key, node.Ino, node.Kind, node.Size, node.Nlink, node.MtimeNs
}

// appendInode appends one element of the Inodes map: the key, then the
// inode's gob struct encoding — each non-zero field as (field delta,
// value), terminated by a zero delta.
func appendInode(dst []byte, key uint64, node *Inode) []byte {
	c := &node.enc
	if c.n == 0 || c.key != key || c.ino != node.Ino || c.kind != node.Kind || c.size != node.Size || c.nlink != node.Nlink || c.mtimeNs != node.MtimeNs {
		c.encode(key, node)
	}
	// This runs once per inode per snapshot, nearly always for an inode
	// that did not change: store the whole array (a fixed-size copy the
	// compiler expands in line) and keep the part in use, rather than
	// call memmove for a variable few dozen bytes.
	dst = slices.Grow(dst, len(c.elem))
	at := len(dst)
	*(*[len(c.elem)]byte)(dst[at : at+len(c.elem)]) = c.elem
	// Gob omits only nil maps; an empty non-nil map is sent with count
	// zero (and decodes back non-nil). Matching that exactly matters both
	// for byte length and because replay writes into decoded dir maps.
	if node.Entries == nil {
		return dst[:at+int(c.n)]
	}
	ents := node.sortedEntries()
	dst = append(dst[:at+int(c.n)-1], c.entDelta)
	dst = appendGobUint(dst, uint64(len(ents)))
	dst = append(dst, c.ents...)
	return append(dst, 0)
}

// appendStateBody appends the gob struct encoding of the snapshot state
// itself (without message framing).
func appendStateBody(dst []byte, st snapshotState) []byte {
	prev := -1
	if st.NextIno != 0 {
		dst = appendGobUint(dst, uint64(0-prev))
		prev = 0
		dst = appendGobUint(dst, st.NextIno)
	}
	if st.Inodes != nil {
		dst = appendGobUint(dst, uint64(1-prev))
		dst = appendGobUint(dst, uint64(len(st.Inodes)))
		order := st.order
		if len(order) != len(st.Inodes) {
			order = inoOrder(st.Inodes)
		}
		for _, s := range order {
			dst = appendInode(dst, s.ino, s.node)
		}
	}
	return append(dst, 0)
}

var (
	snapCodecOnce sync.Once
	snapPrefix    []byte // the stream's type-descriptor messages
	snapTypeID    int64  // the type id value messages carry
	snapCodecErr  error  // non-nil: self-check failed, fall back to gob
)

// initSnapCodec captures the descriptor prefix and type id from a real
// gob encode, then verifies the hand encoder reproduces gob's bytes.
func initSnapCodec() {
	// Single-entry maps make gob's output deterministic, so encoding the
	// dummy twice yields two identical value messages; everything before
	// the second one's span is the descriptor prefix.
	dummy := snapshotState{
		NextIno: 3,
		Inodes: map[uint64]*Inode{
			2: {Ino: 2, Kind: KindDir, Size: 1, Nlink: 1, MtimeNs: 5,
				Entries: map[string]uint64{"a": 2}},
		},
	}
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(dummy); err != nil {
		snapCodecErr = err
		return
	}
	aLen := buf.Len()
	if err := enc.Encode(dummy); err != nil {
		snapCodecErr = err
		return
	}
	all := buf.Bytes()
	msgLen := len(all) - aLen
	if msgLen <= 0 || msgLen > aLen {
		snapCodecErr = fmt.Errorf("fs: gob prefix capture confused (%d/%d)", aLen, msgLen)
		return
	}
	snapPrefix = append([]byte(nil), all[:aLen-msgLen]...)

	msg := all[aLen:]
	bodyLen, n := readGobUint(msg)
	if n == 0 || int(bodyLen) != len(msg)-n {
		snapCodecErr = fmt.Errorf("fs: gob value message framing confused")
		return
	}
	id, idn := readGobUint(msg[n:])
	if idn == 0 || id&1 != 0 { // signed encoding of a positive id has low bit 0
		snapCodecErr = fmt.Errorf("fs: gob type id confused")
		return
	}
	snapTypeID = int64(id >> 1)

	hand := appendStateMessages(nil, dummy)
	if !bytes.Equal(hand, all[:aLen]) {
		snapCodecErr = fmt.Errorf("fs: hand gob encoding diverges from encoding/gob")
	}
}

// appendStateMessages appends the full gob stream for st (descriptor
// prefix plus one framed value message) to dst.
func appendStateMessages(dst []byte, st snapshotState) []byte {
	dst = append(dst, snapPrefix...)
	// The message is framed by its byte count, which is known only once
	// the body (type id, then the struct) is built: build it in place,
	// then shift it right by the frame's width and lay the frame in front.
	frameAt := len(dst)
	dst = appendGobInt(dst, snapTypeID)
	dst = appendStateBody(dst, st)
	bodyLen := len(dst) - frameAt
	var frame [9]byte
	framed := appendGobUint(frame[:0], uint64(bodyLen))
	dst = append(dst, framed...)
	copy(dst[frameAt+len(framed):], dst[frameAt:frameAt+bodyLen])
	copy(dst[frameAt:], framed)
	return dst
}

// appendState appends the gob-compatible snapshot encoding of st to dst,
// falling back to encoding/gob if the startup self-check failed.
func appendState(dst []byte, st snapshotState) ([]byte, error) {
	snapCodecOnce.Do(initSnapCodec)
	if snapCodecErr != nil {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(st); err != nil {
			return nil, err
		}
		return append(dst, buf.Bytes()...), nil
	}
	return appendStateMessages(dst, st), nil
}
