package storman

import "fmt"

// Keys lists every block in the placement index in (object, block)
// order; recovery harnesses walk it to compare pre- and post-crash state.
func (m *Manager) Keys() []Key {
	var out []Key
	for _, obj := range m.Objects() {
		for _, loc := range m.byObject[obj].locs {
			out = append(out, loc.key)
		}
	}
	return out
}

// CheckInvariants cross-checks the placement index against itself and
// against the translation layer underneath: every table is non-empty and
// strictly ascending, every entry sits under its own object, DRAM pages
// and flash logical pages are each owned at most once and never
// double-listed as free, every flash-resident block is actually mapped
// with the tag its key encodes, and the dirty lists hold exactly the
// dirty DRAM-resident blocks. Crash-point enumeration calls it after
// every recovery.
func (m *Manager) CheckInvariants() error {
	dramOwner := make(map[int]Key)
	lpnOwner := make(map[int64]Key)
	dirty := 0
	for obj, t := range m.byObject {
		if len(t.locs) == 0 {
			return fmt.Errorf("object %d keeps an empty table", obj)
		}
		for i, loc := range t.locs {
			key := loc.key
			if key.Object != obj {
				return fmt.Errorf("object %d's table holds key %+v", obj, key)
			}
			if i > 0 && t.locs[i-1].key.Block >= key.Block {
				return fmt.Errorf("object %d's table holds block %d after %d", obj, key.Block, t.locs[i-1].key.Block)
			}
			if loc.size < 0 || loc.size > m.cfg.BlockBytes {
				return fmt.Errorf("block %+v size %d out of range", key, loc.size)
			}
			if loc.flashSize < 0 || loc.flashSize > m.cfg.BlockBytes {
				return fmt.Errorf("block %+v flash size %d out of range", key, loc.flashSize)
			}
			if !loc.inDRAM() && loc.lpn < 0 {
				return fmt.Errorf("block %+v lives nowhere", key)
			}
			if loc.inDRAM() {
				if loc.dramPage >= m.totalPages {
					return fmt.Errorf("block %+v DRAM page %d of %d", key, loc.dramPage, m.totalPages)
				}
				if prev, dup := dramOwner[loc.dramPage]; dup {
					return fmt.Errorf("DRAM page %d owned by both %+v and %+v", loc.dramPage, prev, key)
				}
				dramOwner[loc.dramPage] = key
				if loc.links[lruLink].queued != loc.links[fifoLink].queued {
					return fmt.Errorf("block %+v half-enqueued in the dirty lists", key)
				}
				if loc.links[lruLink].queued {
					dirty++
				}
			} else if loc.links[lruLink].queued || loc.links[fifoLink].queued {
				return fmt.Errorf("flash-resident block %+v still in the dirty lists", key)
			}
			if loc.lpn >= 0 {
				if prev, dup := lpnOwner[loc.lpn]; dup {
					return fmt.Errorf("flash page %d owned by both %+v and %+v", loc.lpn, prev, key)
				}
				lpnOwner[loc.lpn] = key
				if !m.fl.Mapped(loc.lpn) {
					return fmt.Errorf("block %+v claims unmapped flash page %d", key, loc.lpn)
				}
				// Tags exist only when the translation layer persists them.
				if m.fl.PersistsMapping() && m.fl.TagOf(loc.lpn) != encodeTag(key) {
					return fmt.Errorf("flash page %d tagged %x, block %+v expects %x",
						loc.lpn, m.fl.TagOf(loc.lpn), key, encodeTag(key))
				}
			} else if loc.flashSize != 0 {
				return fmt.Errorf("block %+v has flash size %d but no flash page", key, loc.flashSize)
			}
		}
	}

	seenDRAM := make(map[int]bool)
	for _, p := range m.freeDRAM {
		if p < 0 || p >= m.totalPages {
			return fmt.Errorf("free DRAM page %d of %d", p, m.totalPages)
		}
		if seenDRAM[p] {
			return fmt.Errorf("DRAM page %d listed free twice", p)
		}
		seenDRAM[p] = true
		if owner, used := dramOwner[p]; used {
			return fmt.Errorf("DRAM page %d free but owned by %+v", p, owner)
		}
	}
	if len(m.freeDRAM)+len(dramOwner) != m.totalPages {
		return fmt.Errorf("%d free + %d owned DRAM pages != %d total",
			len(m.freeDRAM), len(dramOwner), m.totalPages)
	}

	seenLPN := make(map[int64]bool)
	for _, lpn := range m.freeLPN {
		if seenLPN[lpn] {
			return fmt.Errorf("flash page %d listed free twice", lpn)
		}
		seenLPN[lpn] = true
		if owner, used := lpnOwner[lpn]; used {
			return fmt.Errorf("flash page %d free but owned by %+v", lpn, owner)
		}
	}

	queued := m.writeOrder.Len()
	if m.dirtyOrder.Len() != queued {
		return fmt.Errorf("dirty lists disagree: %d vs %d", queued, m.dirtyOrder.Len())
	}
	if queued != dirty {
		return fmt.Errorf("%d blocks queued dirty, %d marked dirty", queued, dirty)
	}
	for loc := m.writeOrder.Front(); loc != nil; loc = m.writeOrder.Next(loc) {
		if _, _, found := m.find(loc.key); found != loc {
			return fmt.Errorf("dirty list holds dropped block %+v", loc.key)
		}
	}
	return nil
}
