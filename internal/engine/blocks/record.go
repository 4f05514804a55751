package blocks

import (
	"encoding/binary"
	"hash/crc32"

	"ssmobile/internal/obs"
)

// On-flash records open with a check word and the program sequence
// number; what follows is the engine's payload.
//
// The check word is the engine's magic XOR-folded with a CRC of the rest
// of the record, so the record self-checks without growing (a bigger
// record would change every spare-program latency). A torn program —
// power cut partway through the record — leaves a prefix whose CRC
// cannot match, where a bare magic word (entirely inside the surviving
// prefix) would have validated garbage: the torn record still carries a
// plausible sequence number, would win the per-page sequence battle at
// mount, and resurrect half-written state over committed data. The
// distinct magics keep one engine's card from mounting under another.

// RecordHeaderBytes is the check word plus the sequence number.
const RecordHeaderBytes = 4 + 8

// SealRecord stamps seq into rec and folds the check word over
// everything after it; the payload must already be in place.
func SealRecord(magic uint32, seq uint64, rec []byte) {
	binary.LittleEndian.PutUint64(rec[4:], seq)
	binary.LittleEndian.PutUint32(rec, magic^crc32.ChecksumIEEE(rec[4:]))
}

// OpenRecord verifies the check word over exactly rec and returns the
// sequence number. ok is false for a blank, torn or foreign record.
func OpenRecord(magic uint32, rec []byte) (seq uint64, ok bool) {
	if len(rec) < RecordHeaderBytes || binary.LittleEndian.Uint32(rec) != magic^crc32.ChecksumIEEE(rec[4:]) {
		return 0, false
	}
	return binary.LittleEndian.Uint64(rec[4:]), true
}

// NoteUnsealed accounts for a record slot that did not open during a
// mount scan: entirely erased bytes are an unwritten slot; anything else
// is a corrupt record.
func (p *Pool) NoteUnsealed(slot []byte) {
	for _, x := range slot {
		if x != 0xFF {
			p.mount.CorruptRecords++
			return
		}
	}
}

// ScanRecords is the first half of the power-failure mount path, over a
// pool fresh from New. It reads every page's spare record (recordBytes
// long, sealed under magic) as charged device work, so mount time
// appears in the simulation, and hands each record that opens to visit.
// Spare areas that are neither blank nor a sealed record — torn
// programs, trembling-erase residue — are counted corrupt. It returns
// the largest sequence number it saw; the engine must then Settle every
// block, saying which ones its visits found records in.
func (p *Pool) ScanRecords(magic uint32, recordBytes int, visit func(ppn int64, seq uint64, rec []byte)) (maxSeq uint64, err error) {
	rec := make([]byte, recordBytes)
	for ppn := int64(0); ppn < int64(len(p.state))*int64(p.ppb); ppn++ {
		if _, err := p.dev.ReadSpare(ppn, rec); err != nil {
			return 0, err
		}
		seq, ok := OpenRecord(magic, rec)
		if !ok {
			p.NoteUnsealed(rec)
			continue
		}
		if seq > maxSeq {
			maxSeq = seq
		}
		visit(ppn, seq, rec)
	}
	return maxSeq, nil
}

// Settle is the second half: it decides what block b is after the scan.
//
//   - A block the device reports worn out is retired again.
//   - A block holding any sealed record (hasRecords) is in use.
//   - A record-free block stays free, but if it fails the blank check —
//     a torn data program whose record never landed, or an interrupted
//     erase that left the array trembling — it is erased again now, as a
//     charged operation, because engines program free blocks without
//     erasing first; if that erase spends its last cycle it retires.
//
// The erase is recovery, not cleaning, and is charged to that cause.
// Engines settle blocks one at a time, in ascending order, so an engine
// whose free-block order depends on erase counts sees each count change
// at the same point of its own bookkeeping as it always has.
func (p *Pool) Settle(b int, hasRecords bool) error {
	switch {
	case p.dev.WornOut(b):
		p.retire(b)
		p.mount.RetiredBlocks++
	case hasRecords:
		p.take(b)
	default:
		if _, dirty := p.NonBlankAt(b); !dirty {
			return nil
		}
		defer p.obs.PushCause(obs.CauseMountRecovery)()
		if _, err := p.dev.Erase(b); err != nil {
			return err
		}
		p.mount.ReErasedBlocks++
		if p.dev.WornOut(b) {
			p.retire(b)
			p.mount.RetiredBlocks++
		}
	}
	return nil
}
