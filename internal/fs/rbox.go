package fs

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"

	"ssmobile/internal/dram"
	"ssmobile/internal/obs"
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
// Region layout:
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

type snapshotState struct {
	NextIno uint64
	Inodes  map[uint64]*Inode

	// order is Inodes in key order when the holder keeps one (the FS
	// does); without it the encoder sorts the keys itself. Unexported, so
	// not part of the wire format.
	order []inoSlot
}

type rbox struct {
	clock *sim.Clock
	dev   *dram.Device
	base  int64
	size  int64

	snapBase, snapCap int64
	jBase, jCap       int64

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
	if cfg.RBoxBase < 0 || cfg.RBoxBase+cfg.RBoxBytes > dev.Capacity() {
		return nil, fmt.Errorf("fs: recovery box outside DRAM")
	}
	usable := cfg.RBoxBytes - rboxHeader
	snapCap := usable / 2
	r := &rbox{
		clock:    clock,
		dev:      dev,
		base:     cfg.RBoxBase,
		size:     cfg.RBoxBytes,
		snapBase: cfg.RBoxBase + rboxHeader,
		snapCap:  snapCap,
	}
	r.jBase = r.snapBase + snapCap
	r.jCap = usable - snapCap
	return r, nil
}

func encodeState(st snapshotState) ([]byte, error) {
	return appendState(nil, st)
}

func decodeState(p []byte) (snapshotState, error) {
	var st snapshotState
	err := gob.NewDecoder(bytes.NewReader(p)).Decode(&st)
	return st, err
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
	_, err := r.dev.Write(r.base, hdr)
	return err
}

// snapshot serialises the full metadata state and resets the journal.
// The encoding reuses the box's buffer, so steady-state rollovers do
// not allocate.
func (r *rbox) snapshot(st snapshotState) error {
	var err error
	r.encBuf, err = appendState(r.encBuf[:0], st)
	if err != nil {
		return err
	}
	data := r.encBuf
	if int64(len(data)) > r.snapCap {
		return fmt.Errorf("%w: snapshot of %d exceeds %d", ErrRBoxFull, len(data), r.snapCap)
	}
	if _, err := r.dev.Write(r.snapBase, data); err != nil {
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

// encodeRecord packs one journal record.
func encodeRecord(kind byte, a, b, c uint64, s1, s2 string) []byte {
	return appendRecord(make([]byte, 0, 1+24+4+len(s1)+len(s2)), kind, a, b, c, s1, s2)
}

// appendRecord packs one journal record onto rec, reusing its capacity.
func appendRecord(rec []byte, kind byte, a, b, c uint64, s1, s2 string) []byte {
	rec = append(rec, kind)
	rec = binary.LittleEndian.AppendUint64(rec, a)
	rec = binary.LittleEndian.AppendUint64(rec, b)
	rec = binary.LittleEndian.AppendUint64(rec, c)
	rec = binary.LittleEndian.AppendUint16(rec, uint16(len(s1)))
	rec = append(rec, s1...)
	rec = binary.LittleEndian.AppendUint16(rec, uint16(len(s2)))
	rec = append(rec, s2...)
	return rec
}

type journalRecord struct {
	kind    byte
	a, b, c uint64
	s1, s2  string
}

func decodeRecords(p []byte) ([]journalRecord, error) {
	var out []journalRecord
	for len(p) > 0 {
		if len(p) < 29 {
			return nil, fmt.Errorf("%w: truncated record", ErrCorruptRBox)
		}
		var rec journalRecord
		rec.kind = p[0]
		rec.a = binary.LittleEndian.Uint64(p[1:])
		rec.b = binary.LittleEndian.Uint64(p[9:])
		rec.c = binary.LittleEndian.Uint64(p[17:])
		n1 := int(binary.LittleEndian.Uint16(p[25:]))
		p = p[27:]
		if len(p) < n1+2 {
			return nil, fmt.Errorf("%w: truncated name", ErrCorruptRBox)
		}
		rec.s1 = string(p[:n1])
		n2 := int(binary.LittleEndian.Uint16(p[n1:]))
		p = p[n1+2:]
		if len(p) < n2 {
			return nil, fmt.Errorf("%w: truncated name", ErrCorruptRBox)
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

// journal records one metadata mutation in the recovery box, taking a
// fresh snapshot when the journal is long or full.
func (f *FS) journal(kind byte, a, b, c uint64, s1, s2 string) error {
	if f.rbox == nil {
		return nil
	}
	if f.rbox.records >= f.cfg.SnapshotEvery {
		if err := f.rbox.snapshot(f.snapshotState()); err != nil {
			return err
		}
		return nil // the snapshot already includes this mutation
	}
	f.recBuf = appendRecord(f.recBuf[:0], kind, a, b, c, s1, s2)
	err := f.rbox.append(f.recBuf)
	if errors.Is(err, ErrRBoxFull) {
		return f.rbox.snapshot(f.snapshotState())
	}
	return err
}

// applyRecord replays one journal record onto the metadata.
func applyRecord(st *snapshotState, rec journalRecord) error {
	switch rec.kind {
	case recCreate:
		node := &Inode{Ino: rec.a, Kind: Kind(rec.c), Nlink: 1}
		if node.Kind == KindDir {
			node.Entries = make(map[string]uint64)
		}
		st.Inodes[rec.a] = node
		parent := st.Inodes[rec.b]
		if parent == nil || parent.Kind != KindDir {
			return fmt.Errorf("%w: create under missing or non-dir inode %d", ErrCorruptRBox, rec.b)
		}
		parent.setEntry(rec.s1, rec.a)
		if rec.a >= st.NextIno {
			st.NextIno = rec.a + 1
		}
	case recLink:
		node := st.Inodes[rec.a]
		parent := st.Inodes[rec.b]
		if node == nil || parent == nil || parent.Kind != KindDir {
			return fmt.Errorf("%w: link across missing or non-dir inodes", ErrCorruptRBox)
		}
		parent.setEntry(rec.s1, rec.a)
		node.Nlink++
	case recRemove:
		if parent := st.Inodes[rec.b]; parent != nil {
			parent.delEntry(rec.s1)
		}
		if node := st.Inodes[rec.a]; node != nil {
			node.Nlink--
			if node.Nlink <= 0 {
				delete(st.Inodes, rec.a)
			}
		}
	case recRename:
		oldParent, newParent := st.Inodes[rec.b], st.Inodes[rec.c]
		if oldParent == nil || newParent == nil ||
			oldParent.Kind != KindDir || newParent.Kind != KindDir {
			return fmt.Errorf("%w: rename across missing or non-dir inodes", ErrCorruptRBox)
		}
		oldParent.delEntry(rec.s1)
		newParent.setEntry(rec.s2, rec.a)
	case recSetSize:
		if node := st.Inodes[rec.a]; node != nil {
			node.Size = int64(rec.b)
			node.MtimeNs = int64(rec.c)
		}
	default:
		return fmt.Errorf("%w: unknown record kind %d", ErrCorruptRBox, rec.kind)
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
	if _, err := dramDev.Read(rb.base, hdr); err != nil {
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
	if _, err := dramDev.Read(rb.snapBase, snap); err != nil {
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
	records, err := decodeRecords(journalBytes)
	if err != nil {
		return nil, err
	}
	for _, rec := range records {
		if err := applyRecord(&st, rec); err != nil {
			return nil, err
		}
	}
	// openFS starts the box from a fresh snapshot, so the journal is clean
	// going forward.
	return openFS(cfg, clock, sm, dramDev, st, rb)
}

// Checkpoint persists the metadata to flash through the storage manager's
// reserved metadata object. Combined with the data the write-back policy
// has migrated, this bounds what a power failure can destroy.
func (f *FS) Checkpoint() error {
	// The checkpoint stream is filesystem metadata: charge its flash
	// programs to the metadata cause, overriding any enclosing sync scope.
	defer f.obs.PushCause(obs.CauseMetadata)()
	if cap(f.ckptBuf) < 8 {
		f.ckptBuf = make([]byte, 8, 256)
	}
	framed, err := appendState(f.ckptBuf[:8], f.snapshotState())
	if err != nil {
		return err
	}
	f.ckptBuf = framed
	bs := f.BlockBytes()
	binary.LittleEndian.PutUint64(framed, uint64(len(framed)-8))

	var blk int64
	for off := 0; off < len(framed); off += bs {
		end := off + bs
		if end > len(framed) {
			end = len(framed)
		}
		if err := f.sm.WriteBlock(storman.Key{Object: metaObject, Block: blk}, framed[off:end]); err != nil {
			return err
		}
		blk++
	}
	// Drop stale checkpoint blocks from a previously larger checkpoint.
	for old := blk; old < f.metaCheckpointBlocks; old++ {
		if err := f.sm.DeleteBlock(storman.Key{Object: metaObject, Block: old}); err != nil {
			return err
		}
	}
	f.metaCheckpointBlocks = blk
	return f.sm.SyncObject(metaObject)
}

// Sync checkpoints the metadata and migrates all dirty data to flash: the
// full "make everything stable" operation.
func (f *FS) Sync() (err error) {
	sp := f.span("sync")
	defer func() { sp.End(0, err) }()
	f.syncs.Inc()
	if err := f.Checkpoint(); err != nil {
		return err
	}
	return f.sm.Sync()
}

// RecoverAfterPowerFailure rebuilds a file system from the flash
// checkpoint after a power failure destroyed DRAM. It restores the DRAM
// device, reverts the storage manager to flash-resident state, loads the
// last metadata checkpoint, and reaps orphaned objects. It returns the
// recovered file system and the number of data bytes lost.
func RecoverAfterPowerFailure(cfg Config, clock *sim.Clock, sm *storman.Manager, dramDev *dram.Device) (*FS, int64, error) {
	lost := sm.PowerFailRecover()
	dramDev.Restore()

	// Read the checkpoint: block 0 carries the length frame.
	bs := sm.BlockBytes()
	head := make([]byte, bs)
	n, err := sm.ReadBlock(storman.Key{Object: metaObject, Block: 0}, head)
	if err != nil {
		return nil, lost, err
	}
	var st snapshotState
	if n >= 8 {
		dataLen := int64(binary.LittleEndian.Uint64(head))
		framed := make([]byte, 8+dataLen)
		copy(framed, head[:n])
		for off := int64(n); off < int64(len(framed)); {
			blk := off / int64(bs)
			got, err := sm.ReadBlock(storman.Key{Object: metaObject, Block: blk}, framed[blk*int64(bs):])
			if err != nil {
				return nil, lost, err
			}
			if got == 0 {
				return nil, lost, fmt.Errorf("%w: checkpoint truncated", ErrCorruptRBox)
			}
			off = blk*int64(bs) + int64(got)
		}
		st, err = decodeState(framed[8:])
		if err != nil {
			return nil, lost, fmt.Errorf("%w: checkpoint: %v", ErrCorruptRBox, err)
		}
	} else {
		// No checkpoint was ever taken: recover to an empty file system.
		st = snapshotState{
			NextIno: RootIno + 1,
			Inodes:  map[uint64]*Inode{RootIno: {Ino: RootIno, Kind: KindDir, Entries: make(map[string]uint64)}},
		}
	}

	f, err := openFS(cfg, clock, sm, dramDev, st, nil)
	if err != nil {
		return nil, lost, err
	}

	// Reap objects that belong to no surviving inode: files created after
	// the checkpoint whose data partially reached flash.
	for _, obj := range sm.Objects() {
		if obj == metaObject {
			continue
		}
		if _, ok := f.inodes[obj]; !ok {
			if err := sm.DeleteObject(obj); err != nil {
				return nil, lost, err
			}
		}
	}
	return f, lost, nil
}
