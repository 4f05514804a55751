package ftl

import (
	"errors"
	"math/rand"
	"testing"

	"ssmobile/internal/engine/blocks"
	"ssmobile/internal/flash"
)

// tagRef is a map-based reference for the per-page tags and sequence
// numbers the layer keeps densely. Tags follow the calls: a tagged write
// sets one, a trim zeroes it, an untagged write keeps it. Sequence numbers
// follow the device: a mapped page's is the one its out-of-band record
// holds, and a trimmed page keeps its last.
type tagRef struct {
	tag map[int64]Tag
	seq map[int64]uint64
}

// record opens the out-of-band record at ppn.
func record(t *testing.T, dev *flash.Device, ppn int64) (seq, lpn uint64, tag Tag) {
	t.Helper()
	rec := dev.PeekSpare(ppn)
	seq, ok := blocks.OpenRecord(oobMagic, rec)
	if !ok {
		t.Fatalf("page %d: no sealed record", ppn)
	}
	lpn, tag = blocks.PageRecordPayload(rec)
	return seq, lpn, tag
}

// check refreshes the reference's sequence numbers from the device and
// holds TagOf and SeqOf to it on every page and just past both ends.
func (r *tagRef) check(t *testing.T, when string, f *FTL, dev *flash.Device) {
	t.Helper()
	n := f.LogicalPages()
	for lpn := int64(0); lpn < n; lpn++ {
		if ppn := f.physical(lpn); ppn != -1 {
			seq, word, tag := record(t, dev, ppn)
			if int64(word) != lpn || tag != r.tag[lpn] {
				t.Fatalf("%s: page %d's record names page %d, tag %v; want tag %v", when, lpn, word, tag, r.tag[lpn])
			}
			r.seq[lpn] = seq
		}
	}
	for lpn := int64(-2); lpn < n+2; lpn++ {
		if got := f.TagOf(lpn); got != r.tag[lpn] {
			t.Fatalf("%s: TagOf(%d) = %v, want %v", when, lpn, got, r.tag[lpn])
		}
		if got := f.SeqOf(lpn); got != r.seq[lpn] {
			t.Fatalf("%s: SeqOf(%d) = %d, want %d", when, lpn, got, r.seq[lpn])
		}
	}
}

// mounted is the reference a mount must reach: every page's newest record
// on the device, its tag included, whether or not the page was trimmed.
func mounted(t *testing.T, f *FTL, dev *flash.Device) *tagRef {
	t.Helper()
	r := &tagRef{tag: map[int64]Tag{}, seq: map[int64]uint64{}}
	for ppn := int64(0); ppn < dev.SpareUnits(); ppn++ {
		if _, ok := blocks.OpenRecord(oobMagic, dev.PeekSpare(ppn)); !ok {
			continue
		}
		seq, word, tag := record(t, dev, ppn)
		lpn := int64(word)
		if lpn < f.LogicalPages() && seq > r.seq[lpn] {
			r.seq[lpn], r.tag[lpn] = seq, tag
		}
	}
	return r
}

// TestTagsAndSeqsMatchMapReference drives tagged and untagged writes,
// trims and bad page numbers over a card small enough that the cleaner
// relocates pages throughout, and holds every page's tag and sequence
// number to the map reference after every op, across a remount, and on
// after it.
func TestTagsAndSeqsMatchMapReference(t *testing.T) {
	dev, clock := oobFlash(t)
	f, err := New(dev, clock, oobConfig())
	if err != nil {
		t.Fatal(err)
	}
	ref := &tagRef{tag: map[int64]Tag{}, seq: map[int64]uint64{}}
	rng := rand.New(rand.NewSource(11))
	n := f.LogicalPages()
	data := make([]byte, 1024)
	drive := func(ops int) {
		for op := 0; op < ops; op++ {
			lpn := int64(rng.Intn(int(n)))
			if rng.Intn(4) != 0 {
				lpn %= n / 4 // a hot quarter, so cleaning finds cheap victims
			}
			switch k := rng.Intn(10); {
			case k < 4:
				var tag Tag
				rng.Read(tag[:])
				if err := f.WritePageTagged(lpn, data, tag); err != nil {
					t.Fatal(err)
				}
				ref.tag[lpn] = tag
			case k < 8:
				if err := f.WritePage(lpn, data); err != nil {
					t.Fatal(err)
				}
			case k < 9:
				if err := f.TrimPage(lpn); err != nil {
					t.Fatal(err)
				}
				ref.tag[lpn] = Tag{}
			default:
				bad := []int64{-1, n}[rng.Intn(2)]
				if err := f.WritePageTagged(bad, data, Tag{1}); !errors.Is(err, ErrBadPage) {
					t.Fatalf("tagged write to page %d: %v", bad, err)
				}
			}
			ref.check(t, "live", f, dev)
		}
	}
	drive(3000)
	if f.Stats().Cleans == 0 {
		t.Fatal("the run never cleaned")
	}
	if f, err = Mount(dev, clock, oobConfig()); err != nil {
		t.Fatal(err)
	}
	ref = mounted(t, f, dev)
	ref.check(t, "mounted", f, dev)
	drive(1000)

	// Without mapping persistence nothing is kept: every page reads zero.
	plain := oobConfig()
	plain.PersistMapping = false
	dev2, clock2 := oobFlash(t)
	g, err := New(dev2, clock2, plain)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.WritePageTagged(3, data, Tag{7}); err != nil {
		t.Fatal(err)
	}
	if g.TagOf(3) != (Tag{}) || g.SeqOf(3) != 0 {
		t.Fatalf("without persistence: tag %v, seq %d", g.TagOf(3), g.SeqOf(3))
	}
}
