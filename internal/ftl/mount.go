package ftl

import (
	"encoding/binary"
	"fmt"

	"ssmobile/internal/engine"
	"ssmobile/internal/engine/blocks"
	"ssmobile/internal/flash"
	"ssmobile/internal/sim"
)

// Tag is opaque caller metadata attached to a logical page (typically an
// object id and block index). With mapping persistence on, it is stored
// in the page's out-of-band record and recovered by Mount. It aliases
// the storage-engine tag type so *FTL's tagged methods satisfy the
// engine interface directly, without conversion shims on the hot path.
type Tag = engine.Tag

// OOBRecordBytes is the size of the out-of-band record persisted per
// page: a magic word, the program sequence number, the logical page
// number, and the caller tag.
const OOBRecordBytes = 4 + 8 + 8 + 16

const oobMagic uint32 = 0x53534d4c // "SSML"

// encodeOOBInto writes the sealed record into rec (len OOBRecordBytes);
// the program hot path passes a reusable scratch so per-page spare
// programs never allocate.
func encodeOOBInto(rec []byte, seq uint64, lpn int64, tag Tag) {
	binary.LittleEndian.PutUint64(rec[12:], uint64(lpn))
	copy(rec[20:], tag[:])
	blocks.SealRecord(oobMagic, seq, rec)
}

// oobPayload reads the logical page and tag out of an opened record.
func oobPayload(rec []byte) (lpn int64, tag Tag) {
	copy(tag[:], rec[20:])
	return int64(binary.LittleEndian.Uint64(rec[12:])), tag
}

// MountStats reports what a Mount scan found beyond the live mapping —
// the wreckage a power cut left behind.
type MountStats = engine.MountStats

// MountStats returns what the Mount scan found; zero for an FTL built
// with New.
func (f *FTL) MountStats() MountStats { return f.pool.MountStats() }

// Mount rebuilds a translation layer from a device that already holds
// data, by scanning every page's out-of-band record — the power-failure
// recovery path. The configuration must have PersistMapping set and match
// the one the data was written with (page size, policy family). The scan
// is charged real device reads, so mount time appears in the simulation.
//
// Pages whose records are superseded by a newer sequence number for the
// same logical page are treated as dead, as are unprogrammed pages inside
// partially written blocks (interrupted log heads). Blocks the device
// reports worn out are retired again.
func Mount(dev *flash.Device, clock *sim.Clock, cfg Config) (*FTL, error) {
	if !cfg.PersistMapping {
		return nil, fmt.Errorf("ftl: Mount requires PersistMapping")
	}
	f, err := New(dev, clock, cfg)
	if err != nil {
		return nil, err
	}
	type claim struct {
		ppn int64
		seq uint64
		tag Tag
	}
	best := make(map[int64]claim)
	used := make([]bool, f.numBlocks) // blocks holding any record
	f.writeSeq, err = f.pool.ScanRecords(oobMagic, OOBRecordBytes, func(ppn int64, seq uint64, rec []byte) {
		used[f.blockOfPage(ppn)] = true
		lpn, tag := oobPayload(rec)
		if lpn < 0 || lpn >= f.pool.LogicalPages() {
			return // stale record for a page beyond this geometry
		}
		if prev, dup := best[lpn]; !dup || seq > prev.seq {
			best[lpn] = claim{ppn: ppn, seq: seq, tag: tag}
		}
	})
	if err != nil {
		return nil, err
	}

	// Only the winning (newest) record for each logical page contributes
	// its tag.
	winners := make(map[int64]int64, len(best)) // ppn → lpn
	for lpn, c := range best {
		winners[c.ppn] = lpn
		f.tags[lpn] = c.tag
		f.pageSeq[lpn] = c.seq
	}
	// Each block leaves its bank pool as it is settled, in ascending
	// order — the same swap-removes the pre-index free list performed,
	// interleaved with the same re-erases, so the pools' internal order,
	// which wear-aware allocation ties break on, evolves identically.
	for b := 0; b < f.numBlocks; b++ {
		if err := f.pool.Settle(b, used[b]); err != nil {
			return nil, err
		}
		if f.pool.IsFree(b) {
			continue
		}
		f.freeByBank[dev.BankOf(b)].remove(b)
		if !f.pool.InUse(b) {
			continue // retired
		}
		base := int64(b) * int64(f.pagesPerBlock)
		for i := 0; i < f.pagesPerBlock; i++ {
			ppn := base + int64(i)
			if lpn, win := winners[ppn]; win {
				f.state[ppn] = pageValid
				f.reverse[ppn] = lpn
				f.mapping[lpn] = ppn
				f.blocks[b].valid++
			} else {
				// Superseded record, stale record, or an unprogrammed
				// page in an interrupted log head: all reclaimable.
				f.state[ppn] = pageDead
				f.blocks[b].dead++
			}
		}
		f.allocSeq++
		f.blocks[b].allocSeq = f.allocSeq
	}
	f.rebuildIndexes()
	return f, nil
}

// rebuildIndexes recomputes the victim and wear indexes and the running
// max erase count from the block states Mount reconstructed. The device
// carries erase counts from its previous life, so the maximum must be
// rescanned rather than assumed zero.
func (f *FTL) rebuildIndexes() {
	f.maxErase = 0
	for b := 0; b < f.numBlocks; b++ {
		if c := f.dev.EraseCount(b); c > f.maxErase {
			f.maxErase = c
		}
	}
	if f.victims != nil {
		f.victims = newVictimIndex(f.cfg.Policy, f.dev.Banks(), f.pagesPerBlock, f.numBlocks)
	}
	if f.wear != nil {
		f.wear = &lazyHeap{}
	}
	for b := 0; b < f.numBlocks; b++ {
		if !f.pool.InUse(b) {
			continue
		}
		if f.wear != nil {
			f.wear.push(lazyEntry{k1: f.dev.EraseCount(b), block: b})
		}
		f.noteEligible(b)
	}
}
