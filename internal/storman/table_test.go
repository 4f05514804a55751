package storman

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ssmobile/internal/sim"
)

// modelBlock is one block of the map model TestTableMatchesMapModel holds
// the manager to.
type modelBlock struct {
	data  []byte // the current version; its length is the stored size
	flash []byte // the last version flushed; nil if it never was
	dram  bool   // the manager held it in DRAM after the last step
}

// TestTableMatchesMapModel drives the placement table through seeded
// random steps — partial writes, truncations, single and range deletes,
// object syncs, daemon ticks and power failures — over three dense data
// objects and one sparse object keyed like the file system's checkpoints
// (gen<<23 | idx). After every step the manager must agree with a plain
// map model on Objects, Blocks, BlockSize and the bytes ReadAt returns,
// and CheckInvariants must pass. The model learns when a block reached
// flash from the manager (a block that left DRAM was flushed as it
// stood); everything else it predicts.
func TestTableMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { runTableModel(t, seed, 500) })
	}
}

func runTableModel(t *testing.T, seed int64, steps int) {
	const (
		bs        = 4096
		denseLen  = 16 // blocks 0..15 of each dense object
		sparse    = uint64(9)
		gens      = 4
		perGen    = 4
		genShift  = 23
		dramPages = 8
	)
	dense := []uint64{1, 2, 3}
	rng := rand.New(rand.NewSource(seed))
	r := newRig(t, dramPages*bs, 10*sim.Second)
	m := r.m
	model := map[Key]*modelBlock{}

	count := func(obj uint64) int64 {
		var n int64
		for k := range model {
			if k.Object == obj {
				n++
			}
		}
		return n
	}
	sparseKey := func(gen, idx int) int64 { return int64(gen)<<genShift | int64(idx) }
	// key picks a block: a dense object's next index half the time, so
	// tables stay mostly dense, else any index; or a checkpoint key.
	key := func() Key {
		if rng.Intn(4) == 0 {
			return Key{sparse, sparseKey(1+rng.Intn(gens), rng.Intn(perGen))}
		}
		obj := dense[rng.Intn(len(dense))]
		if rng.Intn(2) == 0 {
			return Key{obj, min(count(obj), denseLen-1)}
		}
		return Key{obj, int64(rng.Intn(denseLen))}
	}
	dropWhere := func(obj uint64, drop func(blk int64) bool) {
		for k := range model {
			if k.Object == obj && drop(k.Block) {
				delete(model, k)
			}
		}
	}

	step := func() (string, error) {
		k := key()
		switch op := rng.Intn(20); {
		case op < 8:
			off := rng.Intn(bs)
			data := make([]byte, 1+rng.Intn(bs-off))
			rng.Read(data)
			b := model[k]
			if b == nil {
				b = &modelBlock{}
				model[k] = b
			}
			if end := off + len(data); end > len(b.data) {
				b.data = append(b.data, make([]byte, end-len(b.data))...)
			}
			copy(b.data[off:], data)
			b.dram = true
			return fmt.Sprintf("WriteBlockAt(%v, %d, %d bytes)", k, off, len(data)), m.WriteBlockAt(k, off, data)
		case op < 10:
			size := rng.Intn(bs + 1)
			if b := model[k]; b != nil && size < len(b.data) {
				if size == 0 {
					delete(model, k)
				} else {
					b.data = b.data[:size]
				}
			}
			return fmt.Sprintf("TruncateBlock(%v, %d)", k, size), m.TruncateBlock(k, size)
		case op < 11:
			delete(model, k)
			return fmt.Sprintf("DeleteBlock(%v)", k), m.DeleteBlock(k)
		case op < 13:
			first := k.Block - int64(rng.Intn(3))
			dropWhere(k.Object, func(blk int64) bool { return blk >= first })
			return fmt.Sprintf("DeleteBlocksFrom(%d, %d)", k.Object, first), m.DeleteBlocksFrom(k.Object, first)
		case op < 14:
			end := k.Block + int64(rng.Intn(3))
			if k.Object == sparse {
				end = k.Block &^ (1<<genShift - 1) // retire the generations below
			}
			dropWhere(k.Object, func(blk int64) bool { return blk < end })
			return fmt.Sprintf("DeleteBlocksBefore(%d, %d)", k.Object, end), m.DeleteBlocksBefore(k.Object, end)
		case op < 17:
			return fmt.Sprintf("SyncObject(%d)", k.Object), m.SyncObject(k.Object)
		case op < 19:
			r.clock.Advance(7 * sim.Second)
			return "Tick", m.Tick(sim.Forever)
		default:
			var want int64
			for k, b := range model {
				if b.dram {
					want += int64(len(b.data))
				}
				if b.flash == nil {
					delete(model, k)
					continue
				}
				b.data, b.dram = slices.Clone(b.flash), false
			}
			r.dram.PowerFail()
			lost := m.PowerFailRecover()
			r.dram.Restore()
			if lost != want {
				return "PowerFailRecover", fmt.Errorf("lost %d bytes, model %d", lost, want)
			}
			return "PowerFailRecover", nil
		}
	}

	// expect is what ReadAt must return for n blocks of obj from first.
	expect := func(obj uint64, first int64, n int) []byte {
		out := make([]byte, n*bs)
		for i := range n {
			if b := model[Key{obj, first + int64(i)}]; b != nil {
				copy(out[i*bs:], b.data)
			}
		}
		return out
	}
	buf := make([]byte, denseLen*bs)
	check := func() error {
		if err := m.CheckInvariants(); err != nil {
			return err
		}
		var objs []uint64
		for k := range model {
			if !slices.Contains(objs, k.Object) {
				objs = append(objs, k.Object)
			}
		}
		slices.Sort(objs)
		if got := m.Objects(); !slices.Equal(got, objs) {
			return fmt.Errorf("Objects() = %v, model %v", got, objs)
		}
		for _, obj := range append(slices.Clone(dense), sparse) {
			var blocks []int64
			for k := range model {
				if k.Object == obj {
					blocks = append(blocks, k.Block)
				}
			}
			slices.Sort(blocks)
			if got := m.Blocks(obj); !slices.Equal(got, blocks) {
				return fmt.Errorf("Blocks(%d) = %v, model %v", obj, got, blocks)
			}
		}
		for k, b := range model {
			if got := m.BlockSize(k); got != len(b.data) {
				return fmt.Errorf("BlockSize(%v) = %d, model %d", k, got, len(b.data))
			}
		}
		for _, obj := range dense {
			off := rng.Intn(bs)
			if err := m.ReadAt(obj, int64(off), buf[off:]); err != nil {
				return err
			}
			if want := expect(obj, 0, denseLen)[off:]; !bytes.Equal(buf[off:], want) {
				return fmt.Errorf("ReadAt(%d, %d) differs from the model", obj, off)
			}
		}
		for gen := 1; gen <= gens; gen++ {
			first := sparseKey(gen, 0)
			got := buf[:perGen*bs]
			if err := m.ReadAt(sparse, first*bs, got); err != nil {
				return err
			}
			if !bytes.Equal(got, expect(sparse, first, perGen)) {
				return fmt.Errorf("ReadAt of checkpoint generation %d differs from the model", gen)
			}
		}
		return nil
	}

	for i := range steps {
		what, err := step()
		if err != nil {
			t.Fatalf("step %d: %s: %v", i, what, err)
		}
		// A block that left DRAM during the step was flushed as it stood.
		for k, b := range model {
			inDRAM := m.InDRAM(k)
			if b.dram && !inDRAM {
				b.flash = slices.Clone(b.data)
			}
			b.dram = inDRAM
		}
		if err := check(); err != nil {
			t.Fatalf("after step %d, %s: %v", i, what, err)
		}
	}
}
