package storman

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"ssmobile/internal/dram"
	"ssmobile/internal/engine"
	"ssmobile/internal/sim"
)

// Tags carry the (object, block) identity of every flash-resident block
// in the page's out-of-band record, so the manager's placement table can
// be rebuilt by the translation layer's mount scan after a power loss.
// Layout: object u64 | block u56 | marker 0xA5. The marker distinguishes
// storage-manager pages from anything else that might write the layer.
const tagMarker = 0xA5

func encodeTag(key Key) engine.Tag {
	var tag engine.Tag
	binary.LittleEndian.PutUint64(tag[0:], key.Object)
	binary.LittleEndian.PutUint64(tag[8:], uint64(key.Block))
	tag[15] = tagMarker
	return tag
}

func decodeTag(tag engine.Tag) (Key, bool) {
	if tag[15] != tagMarker {
		return Key{}, false
	}
	obj := binary.LittleEndian.Uint64(tag[0:])
	blkRaw := binary.LittleEndian.Uint64(tag[8:])
	blk := int64(blkRaw & 0x00FFFFFFFFFFFFFF)
	return Key{Object: obj, Block: blk}, true
}

// Mount rebuilds a storage manager over a storage engine that was
// itself just mounted from a device scan: every tagged flash
// page becomes a flash-resident block in the placement table, and
// untagged pages are trimmed as orphans. DRAM-resident state is gone by
// definition — this is the power-failure path — so the DRAM buffer
// starts empty. Recovered blocks are assumed full-page sized; the file
// system's inode sizes clamp reads, so over-length tails are invisible.
func Mount(cfg Config, clock *sim.Clock, dramDev *dram.Device, eng engine.Engine) (*Manager, error) {
	if !eng.PersistsMapping() {
		return nil, fmt.Errorf("storman: Mount requires an engine with a persistent mapping")
	}
	m, err := New(cfg, clock, dramDev, eng)
	if err != nil {
		return nil, err
	}
	// The scan yields pages in ascending lpn: each tagged page is appended
	// to its object's table, and each table is sorted once afterwards.
	var orphans []int64
	eng.ForEachMapped(func(lpn int64, tag engine.Tag) {
		key, ok := decodeTag(tag)
		if !ok {
			orphans = append(orphans, lpn)
			return
		}
		loc := m.newLoc()
		*loc = blockLoc{key: key, size: cfg.BlockBytes, flashSize: cfg.BlockBytes, dramPage: -1, lpn: lpn}
		t := m.table(key.Object)
		t.locs = append(t.locs, loc)
	})
	for _, obj := range m.Objects() {
		t := m.byObject[obj]
		// Stable, so a key's pages stay in scan order. Two pages can claim
		// the same key when a delete's trim was lost to the power failure
		// and the key was re-created at a new page: keep the one with the
		// newer program sequence, the first scanned on a tie.
		slices.SortStableFunc(t.locs, func(a, b *blockLoc) int { return cmp.Compare(a.key.Block, b.key.Block) })
		kept := t.locs[:0]
		for _, loc := range t.locs {
			if n := len(kept); n > 0 && kept[n-1].key == loc.key {
				if eng.SeqOf(loc.lpn) > eng.SeqOf(kept[n-1].lpn) {
					loc, kept[n-1] = kept[n-1], loc
				}
				orphans = append(orphans, loc.lpn)
				m.free(loc)
				continue
			}
			kept = append(kept, loc)
		}
		m.cut(obj, t, len(kept), len(t.locs))
	}
	// A trim only updates the engine's per-page state, so trimming the
	// resurrected duplicates after the untagged pages changes nothing.
	for _, lpn := range orphans {
		if err := eng.TrimPage(lpn); err != nil {
			return nil, err
		}
	}
	// New filled freeLPN with every logical page; once the orphans are
	// trimmed, the pages still mapped are exactly the tables' pages.
	m.freeLPN = m.freeLPN[:0]
	for lpn := eng.LogicalPages() - 1; lpn >= 0; lpn-- {
		if !eng.Mapped(lpn) {
			m.freeLPN = append(m.freeLPN, lpn)
		}
	}
	return m, nil
}
