package pdl

import (
	"encoding/binary"
	"fmt"
	"sort"

	"ssmobile/internal/engine"
	"ssmobile/internal/engine/blocks"
	"ssmobile/internal/flash"
	"ssmobile/internal/sim"
)

// On-flash formats. Every unit (one page-sized region) carries the page
// record both engines share (blocks.SealPageRecord), claiming it: a base
// record binds the unit's full data image to a logical page, a delta
// record marks the unit as a log whose data area holds packed delta
// records. The distinct magic keeps a PDL-formatted card from mounting
// as an FTL card and vice versa. Delta records are sealed by the same
// check word (blocks.SealRecord), the torn-program defence every record
// uses.

const (
	unitMagic  uint32 = 0x50444c31 // "PDL1"
	deltaMagic uint32 = 0x50444c44 // "PDLD"
)

// Unit kinds, packed into the top byte of the page record's word.
const (
	unitKindBase  = 0x00
	unitKindDelta = 0x01
)

const kindShift = 56

// unitWord packs a unit's kind and logical page into its page record's
// word; unitPayload unpacks them from an opened record.
func unitWord(kind int, lpn int64) uint64 {
	return uint64(kind)<<kindShift | uint64(lpn)&(1<<kindShift-1)
}

func unitPayload(rec []byte) (kind int, lpn int64, tag engine.Tag) {
	word, tag := blocks.PageRecordPayload(rec)
	return int(word >> kindShift), int64(word & (1<<kindShift - 1)), tag
}

// deltaHdrBytes is the header of one packed delta record: check word,
// sequence number, logical page, page offset and payload length. The
// check folds the CRC of header and payload together, so a torn record
// (and everything the cut prevented after it) drops off the parsed
// prefix of its unit.
const deltaHdrBytes = 4 + 8 + 4 + 2 + 2

func encodeDeltaRecord(buf []byte, seq uint64, lpn int64, off int, payload []byte) {
	binary.LittleEndian.PutUint32(buf[12:], uint32(lpn))
	binary.LittleEndian.PutUint16(buf[16:], uint16(off))
	binary.LittleEndian.PutUint16(buf[18:], uint16(len(payload)))
	copy(buf[deltaHdrBytes:], payload)
	blocks.SealRecord(deltaMagic, seq, buf[:deltaHdrBytes+len(payload)])
}

// decodeDeltaRecord parses one record at the start of buf, returning
// its total size. ok is false for a blank tail, a torn record, or a
// header whose geometry does not fit the unit.
func decodeDeltaRecord(buf []byte, pageBytes int) (seq uint64, lpn int64, off, n int, ok bool) {
	if len(buf) < deltaHdrBytes {
		return 0, 0, 0, 0, false
	}
	lpn = int64(binary.LittleEndian.Uint32(buf[12:]))
	off = int(binary.LittleEndian.Uint16(buf[16:]))
	n = int(binary.LittleEndian.Uint16(buf[18:]))
	if n < 1 || off+n > pageBytes || deltaHdrBytes+n > len(buf) {
		return 0, 0, 0, 0, false
	}
	seq, ok = blocks.OpenRecord(deltaMagic, buf[:deltaHdrBytes+n])
	return seq, lpn, off, n, ok
}

// Mount rebuilds a page-differential log from a device that already
// holds data — the power-failure recovery path. The scan reads every
// unit's spare record and every delta unit's data area as charged
// device work, so mount time appears in the simulation. For each
// logical page the newest base claim wins, then every delta record with
// a newer sequence number applies in sequence order; cleaning folds and
// promotions guarantee the surviving records always reconstruct either
// the pre-cut or post-cut image, never a hybrid.
func Mount(dev *flash.Device, clock *sim.Clock, cfg Config) (*Engine, error) {
	e, err := New(dev, clock, cfg)
	if err != nil {
		return nil, err
	}
	type baseClaim struct {
		ppn int64
		seq uint64
		tag engine.Tag
	}
	// A record names a page of this geometry when it fits the table New
	// sized — not pool.LogicalPages(), which Settle shrinks partway through
	// the mount: a page in the truncated tail keeps its base and its chain.
	best := make(map[int64]baseClaim)
	var deltaUnits []int64
	maxSeq, err := e.pool.ScanRecords(unitMagic, func(ppn int64, seq uint64, rec []byte) {
		kind, lpn, tag := unitPayload(rec)
		info := &e.blocks[e.blockOf(ppn)]
		info.unitsUsed++
		switch kind {
		case unitKindBase:
			if info.kind == blockUnused {
				info.kind = blockBase
			}
			if lpn >= int64(len(e.pages)) {
				return // stale record beyond this geometry
			}
			if prev, dup := best[lpn]; !dup || seq > prev.seq {
				best[lpn] = baseClaim{ppn: ppn, seq: seq, tag: tag}
			}
		case unitKindDelta:
			info.kind = blockDelta
			deltaUnits = append(deltaUnits, ppn)
		}
	})
	if err != nil {
		return nil, err
	}
	// Any sealed record keeps a block out of the free pool; a block that
	// came out worn has nothing of ours any more.
	for b := 0; b < e.numBlocks; b++ {
		if err := e.pool.Settle(b, e.blocks[b].unitsUsed > 0); err != nil {
			return nil, err
		}
		if !e.pool.InUse(b) {
			e.blocks[b] = blockInfo{}
		}
	}

	// Install the winning base claims.
	for lpn, c := range best {
		if e.pool.IsRetired(e.blockOf(c.ppn)) {
			continue
		}
		pm := &e.pages[lpn]
		pm.basePpn, pm.baseSeq, pm.tag = c.ppn, c.seq, c.tag
		e.rev[c.ppn] = lpn
		e.blocks[e.blockOf(c.ppn)].liveBases++
	}

	// Parse every delta unit's data area: records pack sequentially, a
	// torn or blank header ends the unit's parsed prefix.
	unitBuf := make([]byte, e.cfg.PageBytes)
	perPage := make(map[int64][]deltaRef)
	for _, ppn := range deltaUnits {
		if e.pool.IsRetired(e.blockOf(ppn)) {
			continue
		}
		if _, err := dev.Read(e.unitAddr(ppn), unitBuf); err != nil {
			return nil, err
		}
		off := 0
		for off+deltaHdrBytes <= e.cfg.PageBytes {
			seq, lpn, pOff, n, ok := decodeDeltaRecord(unitBuf[off:], e.cfg.PageBytes)
			if !ok {
				e.pool.NoteUnsealed(unitBuf[off:])
				break
			}
			if seq > maxSeq {
				maxSeq = seq
			}
			size := deltaHdrBytes + n
			e.blocks[e.blockOf(ppn)].appended += int64(size)
			if lpn < int64(len(e.pages)) {
				perPage[lpn] = append(perPage[lpn], deltaRef{
					seq: seq, addr: e.unitAddr(ppn) + int64(off), off: int32(pOff), n: int32(n),
				})
			}
			off += size
		}
	}

	// Attach each page's surviving chain: deltas newer than the winning
	// base, in sequence order.
	lpns := make([]int64, 0, len(perPage))
	for lpn := range perPage {
		lpns = append(lpns, lpn)
	}
	sort.Slice(lpns, func(i, j int) bool { return lpns[i] < lpns[j] })
	for _, lpn := range lpns {
		pm := &e.pages[lpn]
		if pm.basePpn == -1 {
			continue // deltas whose base is gone are unreachable garbage
		}
		refs := perPage[lpn]
		sort.Slice(refs, func(i, j int) bool { return refs[i].seq < refs[j].seq })
		for _, d := range refs {
			if d.seq <= pm.baseSeq {
				continue
			}
			e.attach(lpn, d)
		}
	}

	e.writeSeq = maxSeq
	if err := e.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("pdl: mount left inconsistent state: %w", err)
	}
	return e, nil
}
