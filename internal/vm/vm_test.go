package vm

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"ssmobile/internal/device"
	"ssmobile/internal/disk"
	"ssmobile/internal/dram"
	"ssmobile/internal/flash"
	"ssmobile/internal/sim"
)

type rig struct {
	clock *sim.Clock
	meter *sim.EnergyMeter
	dram  *dram.Device
	flash *flash.Device
	vm    *VM
}

func newRig(t testing.TB, frameBytes int64, swap Swapper) *rig {
	t.Helper()
	clock := sim.NewClock()
	meter := sim.NewEnergyMeter()
	dr, err := dram.New(dram.Config{CapacityBytes: 2 << 20, Params: device.NECDram}, clock, meter)
	if err != nil {
		t.Fatal(err)
	}
	fd, err := flash.New(flash.Config{Banks: 2, BlocksPerBank: 16, BlockBytes: 64 * 1024, Params: device.IntelFlash}, clock, meter)
	if err != nil {
		t.Fatal(err)
	}
	v, err := New(Config{DRAMBase: 0, DRAMBytes: frameBytes, Swap: swap}, clock, dr, fd)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{clock: clock, meter: meter, dram: dr, flash: fd, vm: v}
}

// stageFlash programs data into the flash device directly (as a factory
// or installer would) so it can be mapped.
func stageFlash(t testing.TB, fd *flash.Device, off int64, data []byte) {
	t.Helper()
	blockBytes := fd.BlockBytes()
	for len(data) > 0 {
		n := blockBytes - int(off%int64(blockBytes))
		if n > len(data) {
			n = len(data)
		}
		if _, err := fd.Program(off, data[:n]); err != nil {
			t.Fatal(err)
		}
		off += int64(n)
		data = data[n:]
	}
}

func TestPermString(t *testing.T) {
	if (PermRead | PermExec).String() != "r-x" {
		t.Errorf("got %q", (PermRead | PermExec).String())
	}
	if Perm(0).String() != "---" {
		t.Error("empty perm string wrong")
	}
}

func TestNewValidation(t *testing.T) {
	r := newRig(t, 64*4096, nil)
	if _, err := New(Config{DRAMBase: 0, DRAMBytes: 1 << 30}, r.clock, r.dram, r.flash); err == nil {
		t.Error("pool beyond DRAM accepted")
	}
}

func TestAnonymousReadWrite(t *testing.T) {
	r := newRig(t, 64*4096, nil)
	s := r.vm.NewSpace()
	if err := r.vm.MapAnonymous(s, 0x10000, 8*4096, PermRead|PermWrite); err != nil {
		t.Fatal(err)
	}
	msg := []byte("data segment contents")
	if err := r.vm.Write(s, 0x10100, msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := r.vm.Read(s, 0x10100, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("read %q", got)
	}
}

func TestDemandZero(t *testing.T) {
	r := newRig(t, 64*4096, nil)
	s := r.vm.NewSpace()
	if err := r.vm.MapAnonymous(s, 0, 4096, PermRead|PermWrite); err != nil {
		t.Fatal(err)
	}
	if r.vm.Resident(s, 0) {
		t.Fatal("page resident before first touch")
	}
	buf := make([]byte, 16)
	if err := r.vm.Read(s, 0, buf); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("anonymous page not zeroed")
		}
	}
	if !r.vm.Resident(s, 0) {
		t.Fatal("page not resident after touch")
	}
	if r.vm.Stats().MinorFaults != 1 {
		t.Fatalf("minor faults %d", r.vm.Stats().MinorFaults)
	}
}

func TestProtection(t *testing.T) {
	r := newRig(t, 64*4096, nil)
	s := r.vm.NewSpace()
	if err := r.vm.MapAnonymous(s, 0, 4096, PermRead); err != nil {
		t.Fatal(err)
	}
	if err := r.vm.Write(s, 0, []byte{1}); !errors.Is(err, ErrProtection) {
		t.Fatalf("write to read-only: %v", err)
	}
	if err := r.vm.Exec(s, 0, 16); !errors.Is(err, ErrProtection) {
		t.Fatalf("exec of non-exec: %v", err)
	}
	if err := r.vm.Read(s, 0x999999, make([]byte, 1)); !errors.Is(err, ErrUnmapped) {
		t.Fatalf("unmapped read: %v", err)
	}
}

func TestSpacesAreIsolated(t *testing.T) {
	r := newRig(t, 64*4096, nil)
	a, b := r.vm.NewSpace(), r.vm.NewSpace()
	if a.id == b.id {
		t.Fatal("spaces share an id")
	}
	if err := r.vm.MapAnonymous(a, 0, 4096, PermRead|PermWrite); err != nil {
		t.Fatal(err)
	}
	if err := r.vm.Write(a, 0, []byte("private")); err != nil {
		t.Fatal(err)
	}
	// Space b has no mapping at 0: the same address is simply invalid
	// there. That per-space page table is the protection the paper says
	// VM exists for.
	if err := r.vm.Read(b, 0, make([]byte, 1)); !errors.Is(err, ErrUnmapped) {
		t.Fatalf("cross-space access: %v", err)
	}
}

func TestOverlapRejected(t *testing.T) {
	r := newRig(t, 64*4096, nil)
	s := r.vm.NewSpace()
	if err := r.vm.MapAnonymous(s, 0, 4*4096, PermRead); err != nil {
		t.Fatal(err)
	}
	if err := r.vm.MapAnonymous(s, 2*4096, 4096, PermRead); !errors.Is(err, ErrOverlap) {
		t.Fatalf("overlap: %v", err)
	}
}

func TestExecuteInPlace(t *testing.T) {
	r := newRig(t, 64*4096, nil)
	code := bytes.Repeat([]byte{0x90}, 2*4096)
	stageFlash(t, r.flash, 0, code)
	s := r.vm.NewSpace()
	if err := r.vm.MapFlash(s, 0x400000, 0, len(code), PermRead|PermExec); err != nil {
		t.Fatal(err)
	}
	framesBefore := r.vm.FramesFree()
	if err := r.vm.Exec(s, 0x400000, len(code)); err != nil {
		t.Fatal(err)
	}
	if r.vm.FramesFree() != framesBefore {
		t.Fatal("XIP execution consumed DRAM frames")
	}
	if !r.vm.InFlash(s, 0x400000) {
		t.Fatal("code page left flash")
	}
	if r.vm.Stats().FlashReads == 0 {
		t.Fatal("no flash reads recorded")
	}
}

func TestFlashMappingAlignment(t *testing.T) {
	r := newRig(t, 64*4096, nil)
	s := r.vm.NewSpace()
	if err := r.vm.MapFlash(s, 100, 0, 4096, PermRead); !errors.Is(err, ErrBadRange) {
		t.Fatalf("unaligned vaddr: %v", err)
	}
	if err := r.vm.MapFlash(s, 0, 100, 4096, PermRead); !errors.Is(err, ErrBadRange) {
		t.Fatalf("unaligned flash offset: %v", err)
	}
	if err := r.vm.MapFlash(s, 0, 0, 100, PermRead); !errors.Is(err, ErrBadRange) {
		t.Fatalf("unaligned length: %v", err)
	}
	if err := r.vm.MapFlash(s, 0, r.flash.Capacity(), 4096, PermRead); !errors.Is(err, ErrBadRange) {
		t.Fatalf("flash range past device: %v", err)
	}
}

func TestCopyOnWriteFromFlash(t *testing.T) {
	r := newRig(t, 64*4096, nil)
	orig := bytes.Repeat([]byte{0xCD}, 4096)
	stageFlash(t, r.flash, 64*1024, orig)
	s := r.vm.NewSpace()
	if err := r.vm.MapFlash(s, 0x800000, 64*1024, 4096, PermRead|PermWrite); err != nil {
		t.Fatal(err)
	}
	// Reads come from flash, no copy.
	buf := make([]byte, 8)
	if err := r.vm.Read(s, 0x800000, buf); err != nil {
		t.Fatal(err)
	}
	if !r.vm.InFlash(s, 0x800000) {
		t.Fatal("read should not trigger the copy")
	}
	// First write triggers the copy.
	if err := r.vm.Write(s, 0x800004, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if !r.vm.Resident(s, 0x800000) {
		t.Fatal("written page should now be in DRAM")
	}
	if r.vm.Stats().CowFaults != 1 {
		t.Fatalf("cow faults %d", r.vm.Stats().CowFaults)
	}
	// Merged contents: original bytes around the write.
	got := make([]byte, 8)
	if err := r.vm.Read(s, 0x800000, got); err != nil {
		t.Fatal(err)
	}
	want := []byte{0xCD, 0xCD, 0xCD, 0xCD, 1, 2, 3, 0xCD}
	if !bytes.Equal(got, want) {
		t.Fatalf("cow merge %x, want %x", got, want)
	}
	// The flash original is untouched.
	fbuf := make([]byte, 8)
	if _, err := r.flash.Read(64*1024, fbuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fbuf, orig[:8]) {
		t.Fatal("cow modified the flash original")
	}
}

func TestSharedFlashMappingAcrossSpaces(t *testing.T) {
	r := newRig(t, 64*4096, nil)
	stageFlash(t, r.flash, 0, bytes.Repeat([]byte{7}, 4096))
	a, b := r.vm.NewSpace(), r.vm.NewSpace()
	for _, s := range []*Space{a, b} {
		if err := r.vm.MapFlash(s, 0x1000, 0, 4096, PermRead|PermWrite); err != nil {
			t.Fatal(err)
		}
	}
	// Space a writes; space b must keep seeing the original (private COW).
	if err := r.vm.Write(a, 0x1000, []byte{99}); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 1)
	if err := r.vm.Read(b, 0x1000, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 7 {
		t.Fatalf("space b sees %d, want the unmodified 7", got[0])
	}
}

func TestUnmapReleasesFrames(t *testing.T) {
	r := newRig(t, 8*4096, nil)
	s := r.vm.NewSpace()
	if err := r.vm.MapAnonymous(s, 0, 4*4096, PermRead|PermWrite); err != nil {
		t.Fatal(err)
	}
	if err := r.vm.Write(s, 0, make([]byte, 4*4096)); err != nil {
		t.Fatal(err)
	}
	used := r.vm.Stats().FramesInUse
	if used != 4 {
		t.Fatalf("frames in use %d", used)
	}
	if err := r.vm.Unmap(s, 0, 4*4096); err != nil {
		t.Fatal(err)
	}
	if r.vm.Stats().FramesInUse != 0 {
		t.Fatal("unmap leaked frames")
	}
	if err := r.vm.Read(s, 0, make([]byte, 1)); !errors.Is(err, ErrUnmapped) {
		t.Fatal("unmapped page still accessible")
	}
}

func TestOutOfMemoryWithoutSwap(t *testing.T) {
	r := newRig(t, 2*4096, nil)
	s := r.vm.NewSpace()
	if err := r.vm.MapAnonymous(s, 0, 4*4096, PermRead|PermWrite); err != nil {
		t.Fatal(err)
	}
	err := r.vm.Write(s, 0, make([]byte, 4*4096))
	if !errors.Is(err, ErrNoMemory) {
		t.Fatalf("overcommit without swap: %v", err)
	}
}

func TestSwapPagingRoundTrip(t *testing.T) {
	clock := sim.NewClock()
	meter := sim.NewEnergyMeter()
	dr, err := dram.New(dram.Config{CapacityBytes: 1 << 20, Params: device.NECDram}, clock, meter)
	if err != nil {
		t.Fatal(err)
	}
	fd, err := flash.New(flash.Config{Banks: 1, BlocksPerBank: 16, BlockBytes: 64 * 1024, Params: device.IntelFlash}, clock, meter)
	if err != nil {
		t.Fatal(err)
	}
	dk, err := disk.New(disk.Config{CapacityBytes: 4 << 20, Params: device.KittyHawk}, clock, meter)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := NewDeviceSwapper(dk, 0, 2<<20, 4096)
	if err != nil {
		t.Fatal(err)
	}
	// Only 2 frames: touching 4 pages forces paging.
	v, err := New(Config{DRAMBase: 0, DRAMBytes: 2 * 4096, Swap: sw}, clock, dr, fd)
	if err != nil {
		t.Fatal(err)
	}
	s := v.NewSpace()
	if err := v.MapAnonymous(s, 0, 4*4096, PermRead|PermWrite); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 4; p++ {
		if err := v.Write(s, uint64(p*4096), []byte{byte(p + 1)}); err != nil {
			t.Fatalf("write page %d: %v", p, err)
		}
	}
	st := v.Stats()
	if st.PageOuts == 0 {
		t.Fatal("no page-outs under pressure")
	}
	// All pages still readable with correct contents (page-ins).
	for p := 0; p < 4; p++ {
		buf := make([]byte, 1)
		if err := v.Read(s, uint64(p*4096), buf); err != nil {
			t.Fatalf("read page %d: %v", p, err)
		}
		if buf[0] != byte(p+1) {
			t.Fatalf("page %d corrupted through swap: %d", p, buf[0])
		}
	}
	if v.Stats().PageIns == 0 {
		t.Fatal("no page-ins recorded")
	}
}

func TestSwapperValidation(t *testing.T) {
	r := newRig(t, 4096, nil)
	if _, err := NewDeviceSwapper(r.dram, 0, 100, 4096); err == nil {
		t.Error("too-small swap region accepted")
	}
	sw, err := NewDeviceSwapper(r.dram, 0, 8192, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.PageIn(0, make([]byte, 4096)); err == nil {
		t.Error("page-in of unallocated slot accepted")
	}
	if _, err := sw.PageOut(make([]byte, 8192)); err == nil {
		t.Error("oversized page-out accepted")
	}
}

func TestSwapFull(t *testing.T) {
	r := newRig(t, 4096, nil)
	sw, err := NewDeviceSwapper(r.dram, 0, 4096, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.PageOut(make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	if _, err := sw.PageOut(make([]byte, 4096)); !errors.Is(err, ErrSwapFull) {
		t.Fatalf("swap overcommit: %v", err)
	}
}

func TestXIPIsFasterThanLoadThenRun(t *testing.T) {
	// The E5 claim in miniature: mapping flash code and executing one pass
	// beats copying it to DRAM first and then executing, because the copy
	// dominates.
	r := newRig(t, 256*4096, nil)
	const codeSize = 16 * 4096
	code := bytes.Repeat([]byte{0xEA}, codeSize)
	stageFlash(t, r.flash, 0, code)

	// XIP path.
	s1 := r.vm.NewSpace()
	if err := r.vm.MapFlash(s1, 0x400000, 0, codeSize, PermRead|PermExec); err != nil {
		t.Fatal(err)
	}
	start := r.clock.Now()
	if err := r.vm.Exec(s1, 0x400000, codeSize); err != nil {
		t.Fatal(err)
	}
	xip := r.clock.Now().Sub(start)

	// Load-then-run path: read from flash, write into anonymous DRAM, run.
	s2 := r.vm.NewSpace()
	if err := r.vm.MapAnonymous(s2, 0x400000, codeSize, PermRead|PermWrite|PermExec); err != nil {
		t.Fatal(err)
	}
	start = r.clock.Now()
	buf := make([]byte, codeSize)
	if _, err := r.flash.Read(0, buf); err != nil {
		t.Fatal(err)
	}
	if err := r.vm.Write(s2, 0x400000, buf); err != nil {
		t.Fatal(err)
	}
	if err := r.vm.Exec(s2, 0x400000, codeSize); err != nil {
		t.Fatal(err)
	}
	load := r.clock.Now().Sub(start)

	if xip >= load {
		t.Errorf("XIP %v not faster than load-then-run %v", xip, load)
	}
}

// testPager serves pages from an in-memory table and counts reads.
type testPager struct {
	pages map[int64][]byte
	reads int
}

func (p *testPager) ReadPage(idx int64, buf []byte) error {
	p.reads++
	for i := range buf {
		buf[i] = 0
	}
	copy(buf, p.pages[idx])
	return nil
}

func TestMapExternalReadInPlace(t *testing.T) {
	r := newRig(t, 64*4096, nil)
	pager := &testPager{pages: map[int64][]byte{
		0: bytes.Repeat([]byte{0xA1}, 4096),
		1: bytes.Repeat([]byte{0xA2}, 4096),
	}}
	s := r.vm.NewSpace()
	if err := r.vm.MapExternal(s, 0x2000, pager, 0, 2*4096, PermRead); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	// A read spanning the two pages.
	if err := r.vm.Read(s, 0x2000+4092, buf); err != nil {
		t.Fatal(err)
	}
	want := []byte{0xA1, 0xA1, 0xA1, 0xA1, 0xA2, 0xA2, 0xA2, 0xA2}
	if !bytes.Equal(buf, want) {
		t.Fatalf("got %x want %x", buf, want)
	}
	if pager.reads != 2 {
		t.Fatalf("pager reads %d, want 2", pager.reads)
	}
	if r.vm.Stats().FramesInUse != 0 {
		t.Fatal("external read consumed frames")
	}
}

func TestMapExternalCopyOnWrite(t *testing.T) {
	r := newRig(t, 64*4096, nil)
	pager := &testPager{pages: map[int64][]byte{5: bytes.Repeat([]byte{0x77}, 4096)}}
	s := r.vm.NewSpace()
	if err := r.vm.MapExternal(s, 0x4000, pager, 5, 4096, PermRead|PermWrite); err != nil {
		t.Fatal(err)
	}
	if err := r.vm.Write(s, 0x4002, []byte{9}); err != nil {
		t.Fatal(err)
	}
	if !r.vm.Resident(s, 0x4000) {
		t.Fatal("write should copy the page to DRAM")
	}
	got := make([]byte, 4)
	if err := r.vm.Read(s, 0x4000, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{0x77, 0x77, 9, 0x77}) {
		t.Fatalf("cow merge %x", got)
	}
	// Private mapping: the pager's copy is untouched.
	if pager.pages[5][2] != 0x77 {
		t.Fatal("write leaked through the private mapping")
	}
}

func TestMapExternalValidation(t *testing.T) {
	r := newRig(t, 64*4096, nil)
	s := r.vm.NewSpace()
	pager := &testPager{pages: map[int64][]byte{}}
	if err := r.vm.MapExternal(s, 1, pager, 0, 4096, PermRead); !errors.Is(err, ErrBadRange) {
		t.Error("unaligned external mapping accepted")
	}
	if err := r.vm.MapExternal(s, 0, nil, 0, 4096, PermRead); !errors.Is(err, ErrBadRange) {
		t.Error("nil pager accepted")
	}
}

// writablePager extends testPager with write-back.
type writablePager struct {
	testPager
	writes int
}

func (p *writablePager) WritePage(idx int64, data []byte) error {
	p.writes++
	p.pages[idx] = append([]byte(nil), data...)
	return nil
}

func TestSharedMappingMsync(t *testing.T) {
	r := newRig(t, 64*4096, nil)
	pager := &writablePager{testPager: testPager{pages: map[int64][]byte{
		0: bytes.Repeat([]byte{1}, 4096),
		1: bytes.Repeat([]byte{2}, 4096),
	}}}
	s := r.vm.NewSpace()
	if err := r.vm.MapExternalShared(s, 0x8000, pager, 0, 2*4096, PermRead|PermWrite); err != nil {
		t.Fatal(err)
	}
	if err := r.vm.Write(s, 0x8000, []byte{0xAA}); err != nil {
		t.Fatal(err)
	}
	if pager.writes != 0 {
		t.Fatal("write flushed before msync")
	}
	if err := r.vm.Msync(s, 0x8000, 2*4096); err != nil {
		t.Fatal(err)
	}
	if pager.writes != 1 {
		t.Fatalf("msync wrote %d pages, want only the dirty one", pager.writes)
	}
	if pager.pages[0][0] != 0xAA || pager.pages[0][1] != 1 {
		t.Fatal("written-back page wrong")
	}
	// Clean after msync: another msync writes nothing.
	if err := r.vm.Msync(s, 0x8000, 2*4096); err != nil {
		t.Fatal(err)
	}
	if pager.writes != 1 {
		t.Fatal("msync rewrote clean pages")
	}
}

func TestSharedMappingUnmapFlushes(t *testing.T) {
	r := newRig(t, 64*4096, nil)
	pager := &writablePager{testPager: testPager{pages: map[int64][]byte{0: bytes.Repeat([]byte{5}, 4096)}}}
	s := r.vm.NewSpace()
	if err := r.vm.MapExternalShared(s, 0, pager, 0, 4096, PermRead|PermWrite); err != nil {
		t.Fatal(err)
	}
	if err := r.vm.Write(s, 10, []byte{9}); err != nil {
		t.Fatal(err)
	}
	if err := r.vm.Unmap(s, 0, 4096); err != nil {
		t.Fatal(err)
	}
	if pager.pages[0][10] != 9 {
		t.Fatal("unmap did not flush dirty shared page")
	}
	if r.vm.Stats().FramesInUse != 0 {
		t.Fatal("unmap leaked frame")
	}
}

func TestSharedWritableNeedsWriter(t *testing.T) {
	r := newRig(t, 64*4096, nil)
	s := r.vm.NewSpace()
	readOnly := &testPager{pages: map[int64][]byte{}}
	if err := r.vm.MapExternalShared(s, 0, readOnly, 0, 4096, PermRead|PermWrite); err == nil {
		t.Fatal("writable shared mapping accepted without an ExternalWriter")
	}
	// Read-only shared is fine without a writer.
	if err := r.vm.MapExternalShared(s, 0, readOnly, 0, 4096, PermRead); err != nil {
		t.Fatal(err)
	}
}

func TestProtect(t *testing.T) {
	r := newRig(t, 64*4096, nil)
	s := r.vm.NewSpace()
	if err := r.vm.MapAnonymous(s, 0, 2*4096, PermRead|PermWrite); err != nil {
		t.Fatal(err)
	}
	if err := r.vm.Write(s, 0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := r.vm.Protect(s, 0, 2*4096, PermRead); err != nil {
		t.Fatal(err)
	}
	if err := r.vm.Write(s, 0, []byte{2}); !errors.Is(err, ErrProtection) {
		t.Fatalf("write after mprotect: %v", err)
	}
	if err := r.vm.Read(s, 0, make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	if err := r.vm.Protect(s, 0x100000, 4096, PermRead); !errors.Is(err, ErrUnmapped) {
		t.Fatalf("protect of unmapped: %v", err)
	}
	// Re-enabling write works again.
	if err := r.vm.Protect(s, 0, 2*4096, PermRead|PermWrite); err != nil {
		t.Fatal(err)
	}
	if err := r.vm.Write(s, 0, []byte{3}); err != nil {
		t.Fatal(err)
	}
}

func TestProtectMakesFlashMappingCow(t *testing.T) {
	r := newRig(t, 64*4096, nil)
	stageFlash(t, r.flash, 0, bytes.Repeat([]byte{4}, 4096))
	s := r.vm.NewSpace()
	if err := r.vm.MapFlash(s, 0, 0, 4096, PermRead); err != nil {
		t.Fatal(err)
	}
	if err := r.vm.Protect(s, 0, 4096, PermRead|PermWrite); err != nil {
		t.Fatal(err)
	}
	if err := r.vm.Write(s, 0, []byte{7}); err != nil {
		t.Fatal(err)
	}
	if !r.vm.Resident(s, 0) {
		t.Fatal("write after protect did not copy-on-write")
	}
	if r.flash.Peek(0) != 4 {
		t.Fatal("flash original modified")
	}
}

// Property: after any sequence of writes to an anonymous region, reads
// return the last value written per byte, regardless of frame pressure
// (with swap enabled).
func TestVMModelProperty(t *testing.T) {
	f := func(writes []struct {
		Page uint8
		Off  uint8
		Val  byte
	}) bool {
		clock := sim.NewClock()
		meter := sim.NewEnergyMeter()
		dr, err := dram.New(dram.Config{CapacityBytes: 1 << 20, Params: device.NECDram}, clock, meter)
		if err != nil {
			return false
		}
		fd, err := flash.New(flash.Config{Banks: 1, BlocksPerBank: 4, BlockBytes: 64 * 1024, Params: device.IntelFlash}, clock, meter)
		if err != nil {
			return false
		}
		sw, err := NewDeviceSwapper(dr, 512*1024, 256*1024, 4096)
		if err != nil {
			return false
		}
		v, err := New(Config{DRAMBase: 0, DRAMBytes: 4 * 4096, Swap: sw}, clock, dr, fd)
		if err != nil {
			return false
		}
		s := v.NewSpace()
		if err := v.MapAnonymous(s, 0, 16*4096, PermRead|PermWrite); err != nil {
			return false
		}
		model := map[uint64]byte{}
		for _, w := range writes {
			addr := uint64(w.Page%16)*4096 + uint64(w.Off)
			if err := v.Write(s, addr, []byte{w.Val}); err != nil {
				return false
			}
			model[addr] = w.Val
		}
		buf := make([]byte, 1)
		for addr, want := range model {
			if err := v.Read(s, addr, buf); err != nil {
				return false
			}
			if buf[0] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
