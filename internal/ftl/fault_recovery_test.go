package ftl

import (
	"bytes"
	"errors"
	"testing"

	"ssmobile/internal/device"
	"ssmobile/internal/engine/blocks"
	"ssmobile/internal/flash"
	"ssmobile/internal/sim"
)

// oobFlashInjected builds the oobFlash geometry with a fault injector.
func oobFlashInjected(t testing.TB, inj flash.Injector) (*flash.Device, *sim.Clock) {
	t.Helper()
	clock := sim.NewClock()
	params := device.IntelFlash
	params.EraseLatencyNs = 1e6
	dev, err := flash.New(flash.Config{
		Banks:          2,
		BlocksPerBank:  32,
		BlockBytes:     4096,
		Params:         params,
		SpareUnitBytes: 1024,
		SpareBytes:     blocks.PageRecordBytes,
		Injector:       inj,
	}, clock, sim.NewEnergyMeter())
	if err != nil {
		t.Fatal(err)
	}
	return dev, clock
}

// Regression for the torn-OOB case: a power cut mid spare-program leaves
// a record whose magic, sequence number and logical page number all read
// back intact — only the tag is torn. Without the CRC fold such a record
// wins the per-page sequence battle at Mount and resurrects a
// half-written tag over the committed version.
func TestMountRejectsTornOOBRecord(t *testing.T) {
	// Destructive ops: 0 data v1, 1 record v1, 2 data v2, 3 record v2
	// (torn).
	dev, clock := oobFlashInjected(t, &flash.CutAt{Index: 3, Fate: flash.CutDuring})
	f, err := New(dev, clock, oobConfig())
	if err != nil {
		t.Fatal(err)
	}
	var tag Tag
	tag[0], tag[15] = 7, 0xA5
	if err := f.WritePageTagged(0, page(0xAA, 1024), tag); err != nil {
		t.Fatal(err)
	}
	if err := f.WritePage(0, page(0xBB, 1024)); !errors.Is(err, flash.ErrPowerCut) {
		t.Fatalf("overwrite with torn record: %v", err)
	}

	dev.Restore()
	m, err := Mount(dev, clock, oobConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := m.MountStats().CorruptRecords; got != 1 {
		t.Fatalf("CorruptRecords = %d, want 1", got)
	}
	// The torn version never committed: recovery must surface v1 with its
	// tag and sequence number, not the half-recorded v2.
	buf := make([]byte, 1024)
	if err := m.ReadPages([]int64{0}, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, page(0xAA, 1024)) {
		t.Fatalf("recovered page is not v1 (first byte %02x)", buf[0])
	}
	if m.TagOf(0) != tag {
		t.Fatalf("recovered tag %x, want %x", m.TagOf(0), tag)
	}
	if m.SeqOf(0) != 1 {
		t.Fatalf("recovered seq %d, want 1", m.SeqOf(0))
	}
}

// Regression for the torn-data-page case: a cut mid data-program leaves a
// block holding torn bytes and no OOB record at all. Mount must not
// return it to the free pool as-is — allocation programs free blocks
// without erasing first, so the residue would surface later as a phantom
// overwrite error.
func TestMountReErasesTornDataResidue(t *testing.T) {
	dev, clock := oobFlashInjected(t, &flash.CutAt{Index: 0, Fate: flash.CutDuring})
	f, err := New(dev, clock, oobConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WritePage(0, page(0x00, 1024)); !errors.Is(err, flash.ErrPowerCut) {
		t.Fatalf("torn first write: %v", err)
	}

	dev.Restore()
	m, err := Mount(dev, clock, oobConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := m.MountStats().ReErasedBlocks; got != 1 {
		t.Fatalf("ReErasedBlocks = %d, want 1", got)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Every block must be usable again: write through the whole logical
	// space, which cycles the allocator across every free block including
	// the re-erased one.
	for lpn := int64(0); lpn < m.LogicalPages(); lpn++ {
		if err := m.WritePage(lpn, page(byte(lpn), 1024)); err != nil {
			t.Fatalf("write lpn %d after recovery: %v", lpn, err)
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Regression for the interrupted-erase case: a cut mid cleaning-erase
// leaves the victim block trembling — mixed data, corrupt records — and
// it must be erased again before reuse. Every write acknowledged before
// the cut must still read back afterwards (cleaning relocates live pages
// before erasing, and relocated copies carry newer sequence numbers).
func TestMountAfterInterruptedCleaningErase(t *testing.T) {
	inj := flash.InjectorFunc(func(index int64, kind flash.OpKind, addr int64, n int) flash.Outcome {
		if kind == flash.OpErase {
			return flash.CutDuring
		}
		return flash.Run
	})
	dev, clock := oobFlashInjected(t, inj)
	f, err := New(dev, clock, oobConfig())
	if err != nil {
		t.Fatal(err)
	}
	last := make(map[int64]byte)
	var werr error
	for i := int64(0); ; i++ {
		if i > 100000 {
			t.Fatal("no cleaning erase ever ran")
		}
		lpn := i % 30
		v := byte(i)
		if werr = f.WritePage(lpn, page(v, 1024)); werr != nil {
			break
		}
		last[lpn] = v
	}
	if !errors.Is(werr, flash.ErrPowerCut) {
		t.Fatalf("workload died with %v, want power cut", werr)
	}

	dev.SetInjector(nil) // recovery runs on healthy hardware
	dev.Restore()
	m, err := Mount(dev, clock, oobConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if m.MountStats().ReErasedBlocks < 1 {
		t.Fatal("trembling victim block not re-erased at mount")
	}
	buf := make([]byte, 1024)
	for lpn, v := range last {
		if err := m.ReadPages([]int64{lpn}, buf); err != nil {
			t.Fatalf("read lpn %d: %v", lpn, err)
		}
		if !bytes.Equal(buf, page(v, 1024)) {
			t.Fatalf("lpn %d lost its acknowledged value %d (got %02x)", lpn, v, buf[0])
		}
	}
	// The device stays serviceable: cycle the allocator through the
	// re-erased block.
	for lpn := int64(0); lpn < m.LogicalPages(); lpn++ {
		if err := m.WritePage(lpn, page(byte(lpn), 1024)); err != nil {
			t.Fatalf("write lpn %d after recovery: %v", lpn, err)
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
