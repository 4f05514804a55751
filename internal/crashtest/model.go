package crashtest

import (
	"bytes"
	"fmt"

	"ssmobile/internal/storman"
)

// keyState is the model's view of one block.
type keyState struct {
	// cur is the logical content the host last saw (what a read of the
	// block would return before the crash).
	cur []byte
	// flashV is the padded image the last completed flush put on flash,
	// nil if the block never reached flash.
	flashV []byte
	// dirty means cur has changed since flashV was written — the block
	// sits in battery-backed DRAM and dies with power.
	dirty bool
}

// model tracks exactly what flash may hold at each crash point. It is
// exact — not an over-approximation — because in the harness's regime
// flash changes only inside barrier ops (Sync/Tick): a cut therefore
// always lands mid-barrier, where clean blocks are untouched on flash
// and dirty blocks are either pre- or post-flush.
type model struct {
	blockBytes int
	keys       map[storman.Key]*keyState
	// ghosts holds the flash images of deleted blocks. Deletes and trims
	// are in-memory bookkeeping at this layer — the record stays on flash
	// until the cleaner destroys it — so a deleted block may legitimately
	// resurrect after a crash, but only with an image it actually held.
	// The file system's own synced metadata is what makes deletes stick.
	ghosts map[storman.Key][][]byte
}

func newModel(blockBytes int) *model {
	return &model{
		blockBytes: blockBytes,
		keys:       make(map[storman.Key]*keyState),
		ghosts:     make(map[storman.Key][][]byte),
	}
}

func (mod *model) pad(v []byte) []byte {
	out := make([]byte, mod.blockBytes)
	copy(out, v)
	return out
}

// overlay applies a write of data at off over the current content,
// matching WriteBlockAt: the old prefix, a zero hole from the old end up
// to off, the new bytes, and the old tail past them. The size grows,
// never shrinks.
func overlay(cur []byte, off int, data []byte) []byte {
	out := make([]byte, max(len(cur), off+len(data)))
	copy(out, cur)
	copy(out[off:], data)
	return out
}

func (mod *model) drop(key storman.Key) {
	ks := mod.keys[key]
	if ks == nil {
		return
	}
	if ks.flashV != nil {
		mod.ghosts[key] = append(mod.ghosts[key], ks.flashV)
	}
	delete(mod.keys, key)
}

// completed folds a successfully executed op into the model. Ops that
// error (the cut) are NOT folded: their effects stay visible only
// through the admissible sets below.
func (mod *model) completed(op Op) {
	switch op.Kind {
	case OpWrite:
		data := bytes.Repeat([]byte{op.Fill}, op.Size)
		ks := mod.keys[op.Key]
		if ks == nil {
			ks = &keyState{}
			mod.keys[op.Key] = ks
		}
		ks.cur = overlay(ks.cur, op.Off, data)
		ks.dirty = true
	case OpTruncate:
		ks := mod.keys[op.Key]
		if ks == nil || op.Size >= len(ks.cur) {
			return
		}
		if op.Size <= 0 {
			mod.drop(op.Key)
			return
		}
		ks.cur = ks.cur[:op.Size]
	case OpDelete:
		mod.drop(op.Key)
	case OpDeleteObject:
		for key := range mod.keys {
			if key.Object == op.Key.Object {
				mod.drop(key)
			}
		}
	case OpSync, OpTick:
		// Barrier completed: every dirty block reached flash. (Tick
		// qualifies because the harness advances the clock past the
		// write-back delay first, aging every dirty block.)
		for _, ks := range mod.keys {
			if ks.dirty {
				ks.flashV = mod.pad(ks.cur)
				ks.dirty = false
			}
		}
	}
}

// verify compares the recovered manager against the model and returns
// every data violation.
//
// Clean blocks get an exact check: the cut could not have touched their
// flash image (writes buffer in DRAM, trims are in-memory, and the
// cleaner preserves content — a torn relocation leaves the still-valid
// source record behind, and the victim erase runs only after all copies
// land), so they must read back exactly flashV; if they were never
// flushed they must be absent. Dirty blocks were possibly mid-flush at
// the cut: they may hold the old image, the new one, a ghost from a
// pre-recreate life, or be absent if nothing of theirs ever fully
// reached flash. Deleted blocks may be absent or resurrect any ghost.
func (mod *model) verify(m *storman.Manager) []error {
	var errs []error
	recovered := make(map[storman.Key][]byte)
	buf := make([]byte, mod.blockBytes)
	for _, key := range m.Keys() {
		n := m.BlockSize(key)
		if err := m.ReadAt(key.Object, key.Block*int64(mod.blockBytes), buf[:n]); err != nil {
			errs = append(errs, fmt.Errorf("read recovered block %+v: %w", key, err))
			continue
		}
		recovered[key] = mod.pad(buf[:n])
	}

	seen := make(map[storman.Key]bool)
	check := func(key storman.Key) {
		if seen[key] {
			return
		}
		seen[key] = true
		rec, present := recovered[key]
		ks := mod.keys[key]
		if ks == nil {
			// Deleted or never written: only ghost images may appear.
			if present && !imageIn(rec, mod.ghosts[key]) {
				errs = append(errs, fmt.Errorf("block %+v recovered with an image it never held on flash", key))
			}
			return
		}
		if !ks.dirty {
			if ks.flashV == nil {
				// Unreachable by construction: a clean block was flushed.
				errs = append(errs, fmt.Errorf("model bug: clean block %+v with no flash image", key))
				return
			}
			if !present {
				errs = append(errs, fmt.Errorf("flushed block %+v lost: absent after recovery", key))
			} else if !bytes.Equal(rec, ks.flashV) {
				errs = append(errs, fmt.Errorf("flushed block %+v corrupted: recovered image differs from its synced image at offset %d",
					key, firstDiff(rec, ks.flashV)))
			}
			return
		}
		// Dirty at the cut: old image, in-flight new image, or a ghost.
		admissible := [][]byte{mod.pad(ks.cur)}
		if ks.flashV != nil {
			admissible = append(admissible, ks.flashV)
		}
		admissible = append(admissible, mod.ghosts[key]...)
		if present {
			if !imageIn(rec, admissible) {
				errs = append(errs, fmt.Errorf("dirty block %+v recovered with an image it never held", key))
			}
		} else if ks.flashV != nil {
			errs = append(errs, fmt.Errorf("block %+v lost: had a synced image but is absent after recovery", key))
		}
	}
	for key := range mod.keys {
		check(key)
	}
	for key := range mod.ghosts {
		check(key)
	}
	for key := range recovered {
		check(key)
	}
	return errs
}

func imageIn(img []byte, set [][]byte) bool {
	for _, v := range set {
		if bytes.Equal(img, v) {
			return true
		}
	}
	return false
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}
