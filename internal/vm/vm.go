// Package vm implements the virtual-memory system of the paper's §3.2 for
// a single-level 64-bit address space spanning DRAM and direct-mapped
// flash.
//
// In the paper's storage organisation, virtual memory exists "primarily to
// provide protection across multiple address spaces, rather than to expand
// capacity": every address space gets its own page table, and the
// interesting mappings are:
//
//   - anonymous DRAM pages (data and stack segments), demand-zeroed;
//   - execute-in-place (XIP) mappings of flash regions: "programs residing
//     in flash memory can be executed in place without loss of
//     performance. There is no need to load their code segment into
//     primary storage" — a flash mapping is read and executed directly
//     from the device, no copy ever made;
//   - copy-on-write flash mappings: writable views of flash-resident data
//     where "the affected block [is] copied to DRAM" only when a write
//     actually occurs, postponing all erase/write complications.
//
// For the conventional-organisation baseline, the package also supports a
// swap pager, so the same page tables can model a DRAM-scarce machine that
// pages to disk.
package vm

import (
	"errors"
	"fmt"

	"ssmobile/internal/dram"
	"ssmobile/internal/flash"
	"ssmobile/internal/obs"
	"ssmobile/internal/sim"
)

// Sentinel errors.
var (
	// ErrUnmapped reports an access to an unmapped virtual page.
	ErrUnmapped = errors.New("vm: address not mapped")
	// ErrProtection reports an access violating the page's permissions.
	ErrProtection = errors.New("vm: protection violation")
	// ErrNoMemory reports DRAM frame exhaustion with no swap configured.
	ErrNoMemory = errors.New("vm: out of physical memory")
	// ErrOverlap reports a mapping colliding with an existing one.
	ErrOverlap = errors.New("vm: mapping overlaps existing mapping")
	// ErrBadRange reports a zero- or negative-length mapping.
	ErrBadRange = errors.New("vm: bad range")
)

// Perm is a page-permission bitmask.
type Perm uint8

// Permission bits.
const (
	PermRead Perm = 1 << iota
	PermWrite
	PermExec
)

// String renders the permissions rwx-style.
func (p Perm) String() string {
	b := []byte("---")
	if p&PermRead != 0 {
		b[0] = 'r'
	}
	if p&PermWrite != 0 {
		b[1] = 'w'
	}
	if p&PermExec != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// ExternalPager supplies page contents for mappings backed by a storage
// object the VM does not manage itself — in this system, a file whose
// blocks live behind the physical storage manager. Reads through the
// pager are charged by whichever device the block lives on, so a
// flash-resident file page is read in place with no DRAM copy, exactly
// the paper's memory-mapped file story.
type ExternalPager interface {
	// ReadPage fills buf (one page) with the contents of page idx.
	ReadPage(idx int64, buf []byte) error
}

// ExternalWriter is the write-back half a pager must implement for shared
// mappings: Msync and Unmap push dirty pages through it.
type ExternalWriter interface {
	// WritePage stores one page's contents back to the object.
	WritePage(idx int64, data []byte) error
}

// Swapper provides backing slots for paged-out anonymous frames (the
// conventional baseline). Slot numbering is the swapper's own.
type Swapper interface {
	// PageOut stores a frame's contents and returns its slot.
	PageOut(data []byte) (slot int64, err error)
	// PageIn retrieves a slot's contents into buf and releases the slot.
	PageIn(slot int64, buf []byte) error
}

// PageBytes is the virtual page size, the file system's block.
const PageBytes = 4096

// Config parameterises the VM system.
type Config struct {
	// DRAMBase and DRAMBytes delimit the frame pool inside the DRAM
	// device.
	DRAMBase  int64
	DRAMBytes int64
	// Swap, if non-nil, enables paging anonymous frames out under
	// pressure; nil means frame exhaustion is an error (the solid-state
	// configuration, where capacity is ample by design).
	Swap Swapper
	// Obs receives the VM's metrics and op spans; nil means standalone
	// collectors, nothing exported.
	Obs *obs.Observer
}

// Stats aggregates the VM counters.
type Stats struct {
	MinorFaults  int64 // demand-zero fills
	CowFaults    int64 // flash→DRAM copy-on-write
	PageIns      int64
	PageOuts     int64
	FlashReads   int64 // page-granule reads served in place from flash
	DRAMAccesses int64
	FramesInUse  int
	FramesTotal  int
}

type medium uint8

const (
	medNone medium = iota
	medDRAM
	medFlash
	medSwapped
	medExternal
)

type pte struct {
	perm     Perm
	med      medium
	frame    int   // DRAM frame index when med == medDRAM
	flashOff int64 // flash byte address when med == medFlash (also kept for CoW source)
	swapSlot int64 // when med == medSwapped
	pager    ExternalPager
	pagerIdx int64 // page index within the pager's object
	cow      bool  // write triggers copy to DRAM
	anon     bool  // demand-zero anonymous page
	shared   bool  // external mapping whose writes flush back via Msync
	dirty    bool  // shared page modified since last write-back
}

// Space is one address space (one protection domain).
type Space struct {
	id    int
	pages map[uint64]*pte
}

// frameOwner tracks which (space, vpn) holds each frame, for eviction.
type frameOwner struct {
	space *Space
	vpn   uint64
}

// VM is the virtual-memory system. Not safe for concurrent use.
type VM struct {
	cfg   Config
	clock *sim.Clock
	dram  *dram.Device
	flash *flash.Device

	freeFrames []int
	owners     map[int]frameOwner
	fifo       []int // eviction order of allocated anonymous frames
	nextSpace  int

	obs                           *obs.Observer
	minor, cow, pageIns, pageOuts *obs.Counter
	flashReads, dramAccesses      *obs.Counter
}

// New builds a VM over a DRAM frame pool and a flash device for XIP and
// copy-on-write mappings.
func New(cfg Config, clock *sim.Clock, dramDev *dram.Device, flashDev *flash.Device) (*VM, error) {
	if cfg.DRAMBase < 0 || cfg.DRAMBytes < 0 || cfg.DRAMBase+cfg.DRAMBytes > dramDev.Capacity() {
		return nil, fmt.Errorf("vm: frame pool [%d,%d) outside DRAM of %d",
			cfg.DRAMBase, cfg.DRAMBase+cfg.DRAMBytes, dramDev.Capacity())
	}
	o := cfg.Obs
	lbl := obs.Labels{"layer": "vm"}
	v := &VM{
		cfg:          cfg,
		clock:        clock,
		dram:         dramDev,
		flash:        flashDev,
		owners:       make(map[int]frameOwner),
		obs:          o,
		minor:        o.Counter("faults_total", obs.Labels{"layer": "vm", "kind": "minor"}),
		cow:          o.Counter("faults_total", obs.Labels{"layer": "vm", "kind": "cow"}),
		pageIns:      o.Counter("page_ins_total", lbl),
		pageOuts:     o.Counter("page_outs_total", lbl),
		flashReads:   o.Counter("accesses_total", obs.Labels{"layer": "vm", "medium": "flash"}),
		dramAccesses: o.Counter("accesses_total", obs.Labels{"layer": "vm", "medium": "dram"}),
	}
	frames := int(cfg.DRAMBytes / PageBytes)
	for f := frames - 1; f >= 0; f-- {
		v.freeFrames = append(v.freeFrames, f)
	}
	o.GaugeFunc("frames_in_use", lbl, func() float64 { return float64(frames - len(v.freeFrames)) })
	return v, nil
}

// span opens an op span against the VM's clock and the DRAM device's
// energy meter.
func (v *VM) span(op string) obs.SpanRef {
	return v.obs.Span(v.clock, v.dram.Meter(), "vm", op)
}

// FramesFree reports the free DRAM frames.
func (v *VM) FramesFree() int { return len(v.freeFrames) }

// NewSpace creates an empty address space.
func (v *VM) NewSpace() *Space {
	v.nextSpace++
	return &Space{id: v.nextSpace, pages: make(map[uint64]*pte)}
}

func (v *VM) vpn(addr uint64) uint64 { return addr / PageBytes }

func (v *VM) frameAddr(frame int) int64 {
	return v.cfg.DRAMBase + int64(frame)*PageBytes
}

func (v *VM) checkRange(length int) error {
	if length <= 0 {
		return ErrBadRange
	}
	return nil
}

func (v *VM) checkOverlap(s *Space, addr uint64, length int) error {
	first := v.vpn(addr)
	last := v.vpn(addr + uint64(length) - 1)
	for p := first; p <= last; p++ {
		if _, ok := s.pages[p]; ok {
			return fmt.Errorf("%w: vpn %d", ErrOverlap, p)
		}
	}
	return nil
}

// MapAnonymous maps length bytes of demand-zero DRAM at addr.
func (v *VM) MapAnonymous(s *Space, addr uint64, length int, perm Perm) error {
	if err := v.checkRange(length); err != nil {
		return err
	}
	if err := v.checkOverlap(s, addr, length); err != nil {
		return err
	}
	first := v.vpn(addr)
	last := v.vpn(addr + uint64(length) - 1)
	for p := first; p <= last; p++ {
		s.pages[p] = &pte{perm: perm, med: medNone, anon: true, frame: -1, swapSlot: -1}
	}
	return nil
}

// MapFlash maps length bytes of the flash device, starting at flashOff,
// at addr. If the permissions include write, the mapping is copy-on-write:
// reads and execution come straight from flash, and only a write copies
// the affected page to DRAM (paper §3.1). addr, flashOff and length must
// be page-aligned for simplicity of the model.
func (v *VM) MapFlash(s *Space, addr uint64, flashOff int64, length int, perm Perm) error {
	if err := v.checkRange(length); err != nil {
		return err
	}
	if addr%PageBytes != 0 || flashOff%PageBytes != 0 || length%PageBytes != 0 {
		return fmt.Errorf("%w: flash mappings must be page-aligned", ErrBadRange)
	}
	if flashOff < 0 || flashOff+int64(length) > v.flash.Capacity() {
		return fmt.Errorf("%w: flash range [%d,%d)", ErrBadRange, flashOff, flashOff+int64(length))
	}
	if err := v.checkOverlap(s, addr, length); err != nil {
		return err
	}
	first := v.vpn(addr)
	n := length / PageBytes
	for i := 0; i < n; i++ {
		s.pages[first+uint64(i)] = &pte{
			perm:     perm,
			med:      medFlash,
			frame:    -1,
			flashOff: flashOff + int64(i)*PageBytes,
			swapSlot: -1,
			cow:      perm&PermWrite != 0,
		}
	}
	return nil
}

// MapExternal maps length bytes (page-aligned) of pages served by an
// external pager starting at its page firstIdx. Reads and execution go
// through the pager in place; if the permissions include write the
// mapping is private copy-on-write: the first write copies the page into
// a DRAM frame and later writes stay there (writes do not propagate back
// through the pager).
func (v *VM) MapExternal(s *Space, addr uint64, pager ExternalPager, firstIdx int64, length int, perm Perm) error {
	if err := v.checkRange(length); err != nil {
		return err
	}
	if pager == nil {
		return fmt.Errorf("%w: nil pager", ErrBadRange)
	}
	if addr%PageBytes != 0 || length%PageBytes != 0 {
		return fmt.Errorf("%w: external mappings must be page-aligned", ErrBadRange)
	}
	if err := v.checkOverlap(s, addr, length); err != nil {
		return err
	}
	first := v.vpn(addr)
	n := length / PageBytes
	for i := 0; i < n; i++ {
		s.pages[first+uint64(i)] = &pte{
			perm:     perm,
			med:      medExternal,
			frame:    -1,
			swapSlot: -1,
			pager:    pager,
			pagerIdx: firstIdx + int64(i),
			cow:      perm&PermWrite != 0,
		}
	}
	return nil
}

// MapExternalShared maps pager pages like MapExternal, but as a shared
// mapping: writes land in DRAM frames and are pushed back to the object
// by Msync (and by Unmap). The pager must also implement ExternalWriter.
func (v *VM) MapExternalShared(s *Space, addr uint64, pager ExternalPager, firstIdx int64, length int, perm Perm) error {
	if _, ok := pager.(ExternalWriter); !ok && perm&PermWrite != 0 {
		return fmt.Errorf("%w: shared writable mapping needs an ExternalWriter", ErrBadRange)
	}
	if err := v.MapExternal(s, addr, pager, firstIdx, length, perm); err != nil {
		return err
	}
	first := v.vpn(addr)
	for i := 0; i < length/PageBytes; i++ {
		s.pages[first+uint64(i)].shared = true
	}
	return nil
}

// Msync writes the dirty pages of shared mappings in [addr, addr+length)
// back through their pagers. The frames stay resident and clean.
func (v *VM) Msync(s *Space, addr uint64, length int) error {
	if err := v.checkRange(length); err != nil {
		return err
	}
	first := v.vpn(addr)
	last := v.vpn(addr + uint64(length) - 1)
	buf := make([]byte, PageBytes)
	for p := first; p <= last; p++ {
		e, ok := s.pages[p]
		if !ok || !e.shared || !e.dirty || e.med != medDRAM {
			continue
		}
		if _, err := v.dram.Read(v.frameAddr(e.frame), buf); err != nil {
			return err
		}
		if err := e.pager.(ExternalWriter).WritePage(e.pagerIdx, buf); err != nil {
			return err
		}
		e.dirty = false
	}
	return nil
}

// Unmap removes the pages covering [addr, addr+length), releasing any DRAM
// frames they held. Dirty pages of shared mappings are written back first.
func (v *VM) Unmap(s *Space, addr uint64, length int) error {
	if err := v.checkRange(length); err != nil {
		return err
	}
	if err := v.Msync(s, addr, length); err != nil {
		return err
	}
	first := v.vpn(addr)
	last := v.vpn(addr + uint64(length) - 1)
	for p := first; p <= last; p++ {
		e, ok := s.pages[p]
		if !ok {
			continue
		}
		if e.med == medDRAM {
			v.releaseFrame(e.frame)
		}
		delete(s.pages, p)
	}
	return nil
}

// Protect changes the permissions of the mapped pages covering
// [addr, addr+length). Adding write to an in-place external or flash
// mapping makes it copy-on-write (private) unless it was mapped shared.
func (v *VM) Protect(s *Space, addr uint64, length int, perm Perm) error {
	if err := v.checkRange(length); err != nil {
		return err
	}
	first := v.vpn(addr)
	last := v.vpn(addr + uint64(length) - 1)
	// Validate first so the change is all-or-nothing.
	for p := first; p <= last; p++ {
		if _, ok := s.pages[p]; !ok {
			return fmt.Errorf("%w: vpn %d", ErrUnmapped, p)
		}
	}
	for p := first; p <= last; p++ {
		e := s.pages[p]
		e.perm = perm
		if perm&PermWrite != 0 && (e.med == medFlash || e.med == medExternal) && !e.shared {
			e.cow = true
		}
	}
	return nil
}

func (v *VM) releaseFrame(frame int) {
	delete(v.owners, frame)
	for i, f := range v.fifo {
		if f == frame {
			v.fifo = append(v.fifo[:i], v.fifo[i+1:]...)
			break
		}
	}
	v.freeFrames = append(v.freeFrames, frame)
}

// allocFrame returns a free DRAM frame, paging one out if a swapper is
// configured.
func (v *VM) allocFrame(owner frameOwner) (int, error) {
	if n := len(v.freeFrames); n > 0 {
		f := v.freeFrames[n-1]
		v.freeFrames = v.freeFrames[:n-1]
		v.owners[f] = owner
		v.fifo = append(v.fifo, f)
		return f, nil
	}
	if v.cfg.Swap == nil {
		return 0, ErrNoMemory
	}
	if len(v.fifo) == 0 {
		return 0, ErrNoMemory
	}
	victim := v.fifo[0]
	v.fifo = v.fifo[1:]
	vo := v.owners[victim]
	e := vo.space.pages[vo.vpn]
	sp := v.span("page_out")
	buf := make([]byte, PageBytes)
	if _, err := v.dram.Read(v.frameAddr(victim), buf); err != nil {
		sp.End(0, err)
		return 0, err
	}
	slot, err := v.cfg.Swap.PageOut(buf)
	if err != nil {
		sp.End(0, err)
		return 0, err
	}
	sp.End(int64(len(buf)), nil)
	v.pageOuts.Inc()
	e.med = medSwapped
	e.swapSlot = slot
	e.frame = -1
	delete(v.owners, victim)
	v.owners[victim] = owner
	v.fifo = append(v.fifo, victim)
	return victim, nil
}

// settle brings the page to a state where the access can proceed,
// handling demand-zero, swap-in and copy-on-write faults.
func (v *VM) settle(s *Space, vpn uint64, e *pte, write bool) error {
	switch e.med {
	case medNone:
		// Demand-zero anonymous page.
		frame, err := v.allocFrame(frameOwner{space: s, vpn: vpn})
		if err != nil {
			return err
		}
		zero := make([]byte, PageBytes)
		if _, err := v.dram.Write(v.frameAddr(frame), zero); err != nil {
			return err
		}
		e.med = medDRAM
		e.frame = frame
		v.minor.Inc()
		return nil

	case medSwapped:
		frame, err := v.allocFrame(frameOwner{space: s, vpn: vpn})
		if err != nil {
			return err
		}
		sp := v.span("page_in")
		buf := make([]byte, PageBytes)
		if err := v.cfg.Swap.PageIn(e.swapSlot, buf); err != nil {
			sp.End(0, err)
			return err
		}
		if _, err := v.dram.Write(v.frameAddr(frame), buf); err != nil {
			sp.End(0, err)
			return err
		}
		sp.End(int64(len(buf)), nil)
		e.med = medDRAM
		e.frame = frame
		e.swapSlot = -1
		v.pageIns.Inc()
		return nil

	case medFlash, medExternal:
		if !write {
			return nil // read/execute in place
		}
		// Copy-on-write: copy the backing page into a fresh DRAM frame.
		frame, err := v.allocFrame(frameOwner{space: s, vpn: vpn})
		if err != nil {
			return err
		}
		buf := make([]byte, PageBytes)
		if e.med == medFlash {
			if _, err := v.flash.Read(e.flashOff, buf); err != nil {
				return err
			}
		} else if err := e.pager.ReadPage(e.pagerIdx, buf); err != nil {
			return err
		}
		if _, err := v.dram.Write(v.frameAddr(frame), buf); err != nil {
			return err
		}
		e.med = medDRAM
		e.frame = frame
		v.cow.Inc()
		return nil

	default: // medDRAM
		return nil
	}
}

// access is the common read/write/execute path.
func (v *VM) access(s *Space, addr uint64, buf []byte, need Perm, write bool) error {
	if len(buf) == 0 {
		return nil
	}
	off := 0
	for off < len(buf) {
		vpn := v.vpn(addr)
		e, ok := s.pages[vpn]
		if !ok {
			return fmt.Errorf("%w: addr %#x in space %d", ErrUnmapped, addr, s.id)
		}
		if e.perm&need != need {
			return fmt.Errorf("%w: addr %#x needs %v has %v", ErrProtection, addr, need, e.perm)
		}
		if err := v.settle(s, vpn, e, write); err != nil {
			return err
		}
		pageOff := addr % PageBytes
		n := int(PageBytes - pageOff)
		if n > len(buf)-off {
			n = len(buf) - off
		}
		switch e.med {
		case medDRAM:
			v.dramAccesses.Inc()
			da := v.frameAddr(e.frame) + int64(pageOff)
			var err error
			if write {
				_, err = v.dram.Write(da, buf[off:off+n])
				if e.shared {
					e.dirty = true
				}
			} else {
				_, err = v.dram.Read(da, buf[off:off+n])
			}
			if err != nil {
				return err
			}
		case medFlash:
			v.flashReads.Inc()
			if _, err := v.flash.Read(e.flashOff+int64(pageOff), buf[off:off+n]); err != nil {
				return err
			}
		case medExternal:
			v.flashReads.Inc()
			page := make([]byte, PageBytes)
			if err := e.pager.ReadPage(e.pagerIdx, page); err != nil {
				return err
			}
			copy(buf[off:off+n], page[pageOff:])
		default:
			return fmt.Errorf("vm: page in unexpected state %d", e.med)
		}
		addr += uint64(n)
		off += n
	}
	return nil
}

// Read copies memory at addr into buf, charging device latencies.
func (v *VM) Read(s *Space, addr uint64, buf []byte) error {
	return v.access(s, addr, buf, PermRead, false)
}

// Write stores buf at addr.
func (v *VM) Write(s *Space, addr uint64, data []byte) error {
	return v.access(s, addr, data, PermWrite, true)
}

// Exec models instruction fetch of length bytes starting at addr: reads
// requiring execute permission, served in place when the code lives in
// flash.
func (v *VM) Exec(s *Space, addr uint64, length int) error {
	if err := v.checkRange(length); err != nil {
		return err
	}
	buf := make([]byte, length)
	return v.access(s, addr, buf, PermExec, false)
}

// Resident reports whether the page containing addr currently occupies a
// DRAM frame.
func (v *VM) Resident(s *Space, addr uint64) bool {
	e, ok := s.pages[v.vpn(addr)]
	return ok && e.med == medDRAM
}

// InFlash reports whether the page containing addr is served from flash.
func (v *VM) InFlash(s *Space, addr uint64) bool {
	e, ok := s.pages[v.vpn(addr)]
	return ok && e.med == medFlash
}

// Stats summarises the VM counters.
func (v *VM) Stats() Stats {
	total := int(v.cfg.DRAMBytes / PageBytes)
	return Stats{
		MinorFaults:  v.minor.Value(),
		CowFaults:    v.cow.Value(),
		PageIns:      v.pageIns.Value(),
		PageOuts:     v.pageOuts.Value(),
		FlashReads:   v.flashReads.Value(),
		DRAMAccesses: v.dramAccesses.Value(),
		FramesInUse:  total - len(v.freeFrames),
		FramesTotal:  total,
	}
}
