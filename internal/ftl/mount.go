package ftl

import (
	"fmt"
	"slices"

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

// oobMagic seals ftl's out-of-band records, the page record both
// engines share (blocks.SealPageRecord); the page word is the logical
// page.
const oobMagic uint32 = 0x53534d4c // "SSML"

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
	f.writeSeq, err = f.pool.ScanRecords(oobMagic, func(ppn int64, seq uint64, rec []byte) {
		used[f.blockOfPage(ppn)] = true
		word, tag := blocks.PageRecordPayload(rec)
		lpn := int64(word)
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
	// Each block leaves its bank's free list as it is settled, in
	// ascending order, interleaved with the re-erases: the free lists'
	// order, which wear-aware allocation ties break on, is part of the
	// layer's behaviour.
	for b := 0; b < f.numBlocks; b++ {
		if err := f.pool.Settle(b, used[b]); err != nil {
			return nil, err
		}
		if f.pool.IsFree(b) {
			continue
		}
		bank := dev.BankOf(b)
		f.removeFree(bank, slices.Index(f.freeByBank[bank], b))
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
	// The device carries erase counts from its previous life.
	f.maxErase, _, _ = f.wearScan()
	return f, nil
}
