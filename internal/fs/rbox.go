package fs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"ssmobile/internal/dram"
	"ssmobile/internal/sim"
	"ssmobile/internal/storman"
)

// The recovery box is a reserved region of battery-backed DRAM holding a
// full metadata snapshot plus a journal of mutations since that snapshot,
// both CRC-protected (the paper cites Baker & Sullivan's Recovery Box for
// exactly this role). Because the region lives in the simulated DRAM
// device, it survives OS crashes but not power failures, matching the
// paper's stability model.
//
// Region layout, at the start of DRAM:
//
//	[ 0, 8)  magic
//	[ 8,16)  snapshot length
//	[16,24)  snapshot CRC32 (low 32 bits)
//	[24,32)  journal length
//	[32,40)  journal CRC32
//	[40, 40+snapCap)         snapshot area
//	[40+snapCap, regionEnd)  journal area
const (
	rboxMagic  = "SSMRBOX1"
	rboxHeader = 40
)

// ErrCorruptRBox reports a recovery box that fails validation.
var ErrCorruptRBox = errors.New("fs: recovery box corrupt")

// journal record types.
const (
	recCreate byte = iota + 1
	recRemove
	recRename
	recSetSize
	recLink
)

type rbox struct {
	clock *sim.Clock
	dev   *dram.Device

	snapCap     int64
	jBase, jCap int64

	jLen    int64
	jCRC    uint32
	encBuf  []byte // reusable snapshot-encoding buffer
	records int

	snapLen int64
	snapCRC uint32
}

func newRBox(cfg Config, clock *sim.Clock, dev *dram.Device) (*rbox, error) {
	if cfg.RBoxBytes < rboxHeader+1024 {
		return nil, fmt.Errorf("fs: recovery box of %d bytes too small", cfg.RBoxBytes)
	}
	if cfg.RBoxBytes > dev.Capacity() {
		return nil, fmt.Errorf("fs: recovery box outside DRAM")
	}
	usable := cfg.RBoxBytes - rboxHeader
	snapCap := usable / 2
	r := &rbox{
		clock:   clock,
		dev:     dev,
		snapCap: snapCap,
	}
	r.jBase = rboxHeader + snapCap
	r.jCap = usable - snapCap
	return r, nil
}

// writeHeader rewrites the header fields after a snapshot or append. The
// header buffer lives on the stack: the DRAM device copies it out.
func (r *rbox) writeHeader(snapLen int64, snapCRC uint32) error {
	var hdrArr [rboxHeader]byte
	hdr := hdrArr[:]
	copy(hdr, rboxMagic)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(snapLen))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(snapCRC))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(r.jLen))
	binary.LittleEndian.PutUint64(hdr[32:], uint64(r.jCRC))
	_, err := r.dev.Write(0, hdr)
	return err
}

// snapshot serialises the full metadata state and resets the journal.
// The encoding reuses the box's buffer, so steady-state rollovers do
// not allocate.
func (r *rbox) snapshot(st snapshotState) error {
	r.encBuf = appendState(r.encBuf[:0], st)
	data := r.encBuf
	if int64(len(data)) > r.snapCap {
		return fmt.Errorf("%w: snapshot of %d exceeds %d", ErrRBoxFull, len(data), r.snapCap)
	}
	if _, err := r.dev.Write(rboxHeader, data); err != nil {
		return err
	}
	r.jLen = 0
	r.jCRC = 0
	r.records = 0
	r.snapLen = int64(len(data))
	r.snapCRC = crc32.ChecksumIEEE(data)
	return r.writeHeader(r.snapLen, r.snapCRC)
}

// append adds one journal record; the caller snapshots first if it will
// not fit.
func (r *rbox) append(rec []byte) error {
	if r.jLen+int64(len(rec)) > r.jCap {
		return ErrRBoxFull
	}
	if _, err := r.dev.Write(r.jBase+r.jLen, rec); err != nil {
		return err
	}
	r.jLen += int64(len(rec))
	r.jCRC = crc32.Update(r.jCRC, crc32.IEEETable, rec)
	r.records++
	return r.writeHeader(r.snapLen, r.snapCRC)
}

// appendRecord packs one journal record onto rec, reusing its capacity.
// The recovery box's journal and the flash checkpoint's log frames hold
// the same records: kind, three operands, the operation's timestamp and
// two names. What each kind puts where is applyRecord's to say.
func appendRecord(rec []byte, kind byte, a, b, c, t uint64, s1, s2 string) []byte {
	rec = append(rec, kind)
	rec = binary.LittleEndian.AppendUint64(rec, a)
	rec = binary.LittleEndian.AppendUint64(rec, b)
	rec = binary.LittleEndian.AppendUint64(rec, c)
	rec = binary.LittleEndian.AppendUint64(rec, t)
	rec = binary.LittleEndian.AppendUint16(rec, uint16(len(s1)))
	rec = append(rec, s1...)
	rec = binary.LittleEndian.AppendUint16(rec, uint16(len(s2)))
	rec = append(rec, s2...)
	return rec
}

type journalRecord struct {
	kind    byte
	a, b, c uint64
	t       int64 // the operation's timestamp: every inode it touched has this MtimeNs
	s1, s2  string
}

// recordFixedBytes is a record without its names: kind, a, b, c, t and
// the first name's length.
const recordFixedBytes = 1 + 4*8 + 2

// decodeRecords unpacks a run of records. Its errors name what is wrong
// with the bytes; the caller says which store they came from.
func decodeRecords(p []byte) ([]journalRecord, error) {
	var out []journalRecord
	for len(p) > 0 {
		if len(p) < recordFixedBytes+2 {
			return nil, errors.New("truncated record")
		}
		var rec journalRecord
		rec.kind = p[0]
		rec.a = binary.LittleEndian.Uint64(p[1:])
		rec.b = binary.LittleEndian.Uint64(p[9:])
		rec.c = binary.LittleEndian.Uint64(p[17:])
		rec.t = int64(binary.LittleEndian.Uint64(p[25:]))
		n1 := int(binary.LittleEndian.Uint16(p[33:]))
		p = p[recordFixedBytes:]
		if len(p) < n1+2 {
			return nil, errors.New("truncated name")
		}
		rec.s1 = string(p[:n1])
		n2 := int(binary.LittleEndian.Uint16(p[n1:]))
		p = p[n1+2:]
		if len(p) < n2 {
			return nil, errors.New("truncated name")
		}
		rec.s2 = string(p[:n2])
		p = p[n2:]
		out = append(out, rec)
	}
	return out, nil
}

// snapshotState captures the current metadata for serialisation.
func (f *FS) snapshotState() snapshotState {
	return snapshotState{NextIno: f.nextIno, Inodes: f.inodes, order: f.order}
}

// journal records one metadata mutation: once, encoded onto the frame the
// next flash checkpoint will seal (see checkpoint.go), and from there into
// the recovery box, which takes a fresh snapshot instead when its journal
// is long or full.
func (f *FS) journal(kind byte, a, b, c, t uint64, s1, s2 string) error {
	if f.ckpt.imageNext {
		// The next checkpoint is a whole image, which needs no records:
		// the frame only lends the recovery box's record its space.
		f.pending = f.pending[:ckptHeaderBytes]
	}
	at := len(f.pending)
	f.pending = appendRecord(f.pending, kind, a, b, c, t, s1, s2)
	if len(f.pending) > f.ckpt.logCap {
		// Records that outgrew the log of the image they would extend
		// are dearer than a new image. Latching here, not at the checkpoint, is what
		// bounds the buffer when no one ever syncs.
		f.ckpt.imageNext = true
	}
	if f.rbox == nil {
		return nil
	}
	if f.rbox.records >= f.cfg.SnapshotEvery {
		// The snapshot already includes this mutation.
		return f.rbox.snapshot(f.snapshotState())
	}
	err := f.rbox.append(f.pending[at:])
	if errors.Is(err, ErrRBoxFull) {
		return f.rbox.snapshot(f.snapshotState())
	}
	return err
}

// applyRecord replays one journal record onto the metadata, leaving it as
// the operation itself left it, timestamps included. Its errors name the
// record's fault; the caller says which store the record came from.
func applyRecord(st *snapshotState, rec journalRecord) error {
	switch rec.kind {
	case recCreate: // a: the new inode, b: its parent, c: its kind, s1: its name
		parent := st.Inodes[rec.b]
		if parent == nil || parent.Kind != KindDir {
			return fmt.Errorf("create under missing or non-dir inode %d", rec.b)
		}
		node := &Inode{Ino: rec.a, Kind: Kind(rec.c), Nlink: 1, MtimeNs: rec.t}
		if node.Kind == KindDir {
			node.Entries = make(map[string]uint64)
		}
		st.order = addInode(st.Inodes, st.order, node)
		parent.setEntry(rec.s1, rec.a)
		parent.MtimeNs = rec.t
		if rec.a >= st.NextIno {
			st.NextIno = rec.a + 1
		}
	case recLink: // a: the inode, b: the new name's directory, s1: the new name
		node := st.Inodes[rec.a]
		parent := st.Inodes[rec.b]
		if node == nil || parent == nil || parent.Kind != KindDir {
			return errors.New("link across missing or non-dir inodes")
		}
		parent.setEntry(rec.s1, rec.a)
		parent.MtimeNs = rec.t
		node.Nlink++
	case recRemove: // a: the inode, b: the name's directory, s1: the name
		if parent := st.Inodes[rec.b]; parent != nil {
			parent.delEntry(rec.s1)
			parent.MtimeNs = rec.t
		}
		if node := st.Inodes[rec.a]; node != nil {
			node.Nlink--
			if node.Nlink <= 0 {
				st.order = dropInode(st.Inodes, st.order, rec.a)
			}
		}
	case recRename: // a: the inode, b and s1: old directory and name, c and s2: new
		oldParent, newParent := st.Inodes[rec.b], st.Inodes[rec.c]
		if oldParent == nil || newParent == nil ||
			oldParent.Kind != KindDir || newParent.Kind != KindDir {
			return errors.New("rename across missing or non-dir inodes")
		}
		oldParent.delEntry(rec.s1)
		newParent.setEntry(rec.s2, rec.a)
		oldParent.MtimeNs, newParent.MtimeNs = rec.t, rec.t
	case recSetSize: // a: the inode, b: its new size
		if node := st.Inodes[rec.a]; node != nil {
			node.Size = int64(rec.b)
			node.MtimeNs = rec.t
		}
	default:
		return fmt.Errorf("unknown record kind %d", rec.kind)
	}
	return nil
}

// replayRecords decodes a run of records and applies them in order: the
// one replay, run over the recovery box's journal after an OS crash and
// over each frame of the flash log after a power failure.
func replayRecords(st *snapshotState, p []byte) error {
	records, err := decodeRecords(p)
	if err != nil {
		return err
	}
	for _, rec := range records {
		if err := applyRecord(st, rec); err != nil {
			return err
		}
	}
	return nil
}

// RecoverAfterCrash rebuilds a file system from the recovery box after an
// operating-system crash. The DRAM contents (and with them the storage
// manager's state) survived; only the in-core FS object was lost.
func RecoverAfterCrash(cfg Config, clock *sim.Clock, sm *storman.Manager, dramDev *dram.Device) (*FS, error) {
	rb, err := newRBox(cfg, clock, dramDev)
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, rboxHeader)
	if _, err := dramDev.Read(0, hdr); err != nil {
		return nil, err
	}
	if string(hdr[:8]) != rboxMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorruptRBox)
	}
	snapLen := int64(binary.LittleEndian.Uint64(hdr[8:]))
	snapCRC := uint32(binary.LittleEndian.Uint64(hdr[16:]))
	jLen := int64(binary.LittleEndian.Uint64(hdr[24:]))
	jCRC := uint32(binary.LittleEndian.Uint64(hdr[32:]))
	if snapLen < 0 || snapLen > rb.snapCap || jLen < 0 || jLen > rb.jCap {
		return nil, fmt.Errorf("%w: bad lengths", ErrCorruptRBox)
	}
	snap := make([]byte, snapLen)
	if _, err := dramDev.Read(rboxHeader, snap); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(snap) != snapCRC {
		return nil, fmt.Errorf("%w: snapshot checksum", ErrCorruptRBox)
	}
	st, err := decodeState(snap)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptRBox, err)
	}
	journalBytes := make([]byte, jLen)
	if _, err := dramDev.Read(rb.jBase, journalBytes); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(journalBytes) != jCRC {
		return nil, fmt.Errorf("%w: journal checksum", ErrCorruptRBox)
	}
	if err := replayRecords(&st, journalBytes); err != nil {
		return nil, fmt.Errorf("%w: journal: %v", ErrCorruptRBox, err)
	}
	// openFS starts the box from a fresh snapshot, so the journal is clean
	// going forward.
	return openFS(cfg, clock, sm, dramDev, st, rb)
}
