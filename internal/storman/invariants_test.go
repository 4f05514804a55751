package storman

import "testing"

// TestInvariantsWithDirtyBlocksQueued checks the placement index while
// the dirty lists hold blocks, so CheckInvariants walks them: with blocks
// of two objects dirty, after one object's SyncObject, and after the
// other is truncated and then deleted.
func TestInvariantsWithDirtyBlocksQueued(t *testing.T) {
	r := newRig(t, 1<<20, 0)
	check := func(stage string, queued int) {
		t.Helper()
		if err := r.m.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if got := r.m.writeOrder.Len(); got != queued {
			t.Fatalf("%s: %d blocks queued dirty, want %d", stage, got, queued)
		}
	}
	for obj := uint64(1); obj <= 2; obj++ {
		for blk := int64(0); blk < 3; blk++ {
			if err := r.m.WriteBlockAt(Key{obj, blk}, 0, blockOf(byte(blk), 4096)); err != nil {
				t.Fatal(err)
			}
		}
	}
	check("two objects dirty", 6)
	if err := r.m.SyncObject(1); err != nil {
		t.Fatal(err)
	}
	check("after SyncObject(1)", 3)
	if err := r.m.DeleteBlocksFrom(2, 1); err != nil {
		t.Fatal(err)
	}
	check("after truncating object 2 to one block", 1)
	if err := r.m.DeleteObject(2); err != nil {
		t.Fatal(err)
	}
	check("after deleting object 2", 0)
}
