// Package ftl implements the flash storage layer of the paper's physical
// storage manager: the machinery that hides flash's erase-before-write
// behaviour and spreads wear evenly, using "garbage collection techniques
// like those used in log-structured file systems" (paper §3.3).
//
// Four policies are provided, from the naive baseline up to the paper's
// prescription, so the wear-leveling experiment can compare them:
//
//   - PolicyDirect maps logical pages to fixed physical pages. An
//     overwrite forces a read–erase–rewrite of the whole erase block, so a
//     hot page burns through its block's endurance while cold blocks stay
//     fresh. This is what happens with no storage manager at all.
//   - PolicyFIFO appends writes to a log and cleans blocks in allocation
//     order (round-robin). Wear is even but cleaning copies cold data
//     again and again.
//   - PolicyGreedy cleans the block with the most dead pages, minimising
//     copy work but ignoring wear and data temperature.
//   - PolicyCostBenefit uses the LFS cost-benefit formula
//     benefit/cost = age × (1−u) / (1+u), optionally with hot/cold data
//     separation (two log heads) and wear-aware free-block allocation:
//     hot data goes to the least-worn free blocks, relocated cold data to
//     the most-worn, which passively levels wear.
//
// Erases can be issued in the background (the bank stays busy but the
// writer does not stall), which is what makes the banking experiment's
// read-latency story work.
package ftl

import (
	"errors"
	"fmt"

	"ssmobile/internal/engine"
	"ssmobile/internal/engine/blocks"
	"ssmobile/internal/flash"
	"ssmobile/internal/obs"
	"ssmobile/internal/sim"
)

// Sentinel errors.
var (
	// ErrNoSpace reports that every logical page is live and no block can
	// be cleaned.
	ErrNoSpace = blocks.ErrNoSpace
	// ErrBadPage reports an out-of-range logical page number.
	ErrBadPage = errors.New("ftl: logical page out of range")
	// ErrBadSize reports data whose length is not exactly one page.
	ErrBadSize = errors.New("ftl: data must be exactly one page")
	// ErrDeviceWorn reports that wear has made the operation impossible.
	ErrDeviceWorn = errors.New("ftl: flash worn out")
)

// Policy selects the mapping and cleaning strategy.
type Policy int

// Policies, in increasing order of sophistication.
const (
	PolicyDirect Policy = iota
	PolicyFIFO
	PolicyGreedy
	PolicyCostBenefit
)

var policyNames = [...]string{"direct", "fifo", "greedy", "cost-benefit"}

// String names the policy.
func (p Policy) String() string {
	if int(p) < len(policyNames) {
		return policyNames[p]
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// Config parameterises the layer.
type Config struct {
	// PageBytes is the mapping granularity; it must divide the device's
	// erase-block size.
	PageBytes int
	// Policy selects the cleaning strategy.
	Policy Policy
	// HotCold enables two log heads: overwrites (hot) and first writes /
	// cleaner relocations (cold) append to different blocks, and free
	// blocks are chosen wear-aware. Only meaningful for log policies.
	HotCold bool
	// PersistMapping writes an out-of-band record (sequence number,
	// logical page number, caller tag) into the flash spare area on every
	// program, so Mount can rebuild the full mapping by scanning the
	// device after a power loss. Requires a device whose spare-unit size
	// equals PageBytes with at least blocks.PageRecordBytes of spare. Not
	// supported with PolicyDirect.
	PersistMapping bool
	// WearDeltaThreshold enables static wear leveling: when the spread
	// between the most- and least-erased blocks exceeds the threshold,
	// the cleaner forcibly relocates the coldest (least-erased, fully
	// live) block so its barely-worn cells rejoin the allocation pool.
	// Without it, truly cold data pins its blocks at zero erases while
	// the rest of the device wears out around it. Zero disables.
	WearDeltaThreshold int64
	// IdleCleanThreshold lets CleanIdle run cleaning in idle periods
	// until this many blocks are free, taking cleaning work off the
	// write path. Zero disables idle cleaning.
	IdleCleanThreshold int
	// Obs receives the layer's metrics and op spans; nil means standalone
	// collectors, nothing exported.
	Obs *obs.Observer
}

type pageState uint8

const (
	pageFree pageState = iota
	pageValid
	pageDead
)

type blockInfo struct {
	valid, dead int
	allocSeq    int64    // when the block last became a log head
	lastWrite   sim.Time // most recent program into the block
	isActive    bool
}

// WearStats is what only this layer keeps beside the block pool's
// engine-shaped ledger (Stats).
type WearStats struct {
	StaticMoves           int64    // static wear-leveling relocations
	FirstWearOut          sim.Time // zero if none
	FirstWearOutHostBytes int64    // host bytes written when it happened
}

var _ engine.Engine = (*FTL)(nil)

// FTL is the translation layer over one flash device. Not safe for
// concurrent use.
type FTL struct {
	dev   *flash.Device
	clock *sim.Clock
	cfg   Config
	// pool is the block ledger: free/in-use/retired states, logical
	// capacity, erase-or-retire, mount recovery and the space-pressure
	// loop. The FTL keeps policy: which free block, which victim, how a
	// page moves.
	pool *blocks.Pool

	pagesPerBlock int
	numBlocks     int

	mapping []int64 // lpn → ppn, -1 unmapped
	reverse []int64 // ppn → lpn, -1 none
	state   []pageState
	blocks  []blockInfo

	// freeByBank holds each bank's free blocks. A freed block is appended
	// and a taken one swap-removed, and wear-aware allocation breaks ties
	// on that order, so the experiments' outputs depend on it.
	freeByBank [][]int
	nextBank   int

	oldest   []int            // cost-benefit pick scratch: valid count → oldest eligible block
	maxErase int64            // running device-wide max erase count
	onClean  func(victim int) // test hook: observes the victim sequence

	hotActive, coldActive int // block ids, -1 when none
	hotPtr, coldPtr       int

	allocSeq int64
	tags     []Tag    // by lpn: caller tag (persisted in OOB); nil without PersistMapping
	pageSeq  []uint64 // by lpn: newest program sequence; nil without PersistMapping
	writeSeq uint64   // monotone program sequence for OOB records

	// Reusable hot-path scratch: cleanBuf carries one page through a
	// cleaning relocation, oobBuf one spare-area record per program. The
	// FTL is single-threaded and the device copies both out.
	cleanBuf  []byte
	oobBuf    [blocks.PageRecordBytes]byte
	readAddrs []int64 // device addresses of one ReadPages run

	staticMoves           *obs.Counter
	firstWearOut          sim.Time
	firstWearOutHostBytes int64
}

// New builds a translation layer over dev. The device must be freshly
// erased (all blocks free), which is how flash.New delivers it.
func New(dev *flash.Device, clock *sim.Clock, cfg Config) (*FTL, error) {
	f := &FTL{dev: dev, clock: clock, hotActive: -1, coldActive: -1}
	// The direct policy never cleans: no hooks, no reserve, and the whole
	// device is logical space.
	var pick func() int
	var clean func(int) error
	var heads func() (int, int)
	if cfg.Policy != PolicyDirect {
		pick, clean, heads = f.pickVictim, f.cleanOne, f.logHeads
	}
	pool, err := blocks.New(dev, clock, cfg.Obs, "ftl", cfg.PageBytes, cfg.IdleCleanThreshold,
		pick, clean, heads)
	if err != nil {
		return nil, err
	}
	ppb := pool.PagesPerBlock()
	nb := dev.NumBlocks()
	total := int64(nb) * int64(ppb)
	f.cfg, f.pool = cfg, pool
	f.pagesPerBlock, f.numBlocks = ppb, nb
	f.mapping = make([]int64, total)
	f.reverse = make([]int64, total)
	f.state = make([]pageState, total)
	f.blocks = make([]blockInfo, nb)
	f.freeByBank = make([][]int, dev.Banks())
	f.readAddrs = make([]int64, 0, engine.ReadRunPages)
	f.staticMoves = cfg.Obs.Counter("static_moves_total", obs.Labels{"layer": "ftl"})
	for i := range f.mapping {
		f.mapping[i] = -1
		f.reverse[i] = -1
	}
	perBank := nb / len(f.freeByBank)
	for bank := range f.freeByBank {
		f.freeByBank[bank] = make([]int, perBank)
		for i := range f.freeByBank[bank] {
			f.freeByBank[bank][i] = bank*perBank + i
		}
	}
	if cfg.Policy == PolicyCostBenefit {
		f.oldest = make([]int, ppb)
	}
	if cfg.PersistMapping {
		if cfg.Policy == PolicyDirect {
			return nil, fmt.Errorf("ftl: mapping persistence not supported with the direct policy")
		}
		if err := pool.RequireSpare(); err != nil {
			return nil, err
		}
		f.tags = make([]Tag, pool.LogicalPages())
		f.pageSeq = make([]uint64, pool.LogicalPages())
	}
	return f, nil
}

// PageBytes reports the mapping granularity.
func (f *FTL) PageBytes() int { return f.cfg.PageBytes }

// LogicalPages reports the host-visible capacity in pages.
func (f *FTL) LogicalPages() int64 { return f.pool.LogicalPages() }

// LogicalBytes reports the host-visible capacity in bytes.
func (f *FTL) LogicalBytes() int64 { return f.pool.LogicalPages() * int64(f.cfg.PageBytes) }

// Device exposes the underlying flash device (for experiment metrics).
func (f *FTL) Device() *flash.Device { return f.dev }

func (f *FTL) checkLPN(lpn int64) error {
	if lpn < 0 || lpn >= f.pool.LogicalPages() {
		return fmt.Errorf("%w: %d of %d", ErrBadPage, lpn, f.pool.LogicalPages())
	}
	return nil
}

func (f *FTL) pageAddr(ppn int64) int64 { return ppn * int64(f.cfg.PageBytes) }

func (f *FTL) blockOfPage(ppn int64) int { return int(ppn / int64(f.pagesPerBlock)) }

// markDead retires a physical page's contents.
func (f *FTL) markDead(ppn int64) {
	b := f.blockOfPage(ppn)
	if f.state[ppn] != pageValid {
		panic(fmt.Sprintf("ftl: markDead on %v page %d", f.state[ppn], ppn))
	}
	f.state[ppn] = pageDead
	f.blocks[b].valid--
	f.blocks[b].dead++
	f.reverse[ppn] = -1
}

// logHeads names the blocks of the two open log heads for the pool, -1
// for a stream that has none.
func (f *FTL) logHeads() (int, int) { return f.hotActive, f.coldActive }

// headBank picks the bank the next log head opens in, or -1 when no block
// is free: the first bank in rotation order (so consecutive heads stripe
// across banks) that has a free block and nothing in progress — the
// blocks a clean just freed are exactly the ones still erasing, and a
// head opened in one waits the erase out on its first program. When every
// bank with a free block is busy the rotation alone decides.
func (f *FTL) headBank() int {
	banks := len(f.freeByBank)
	for _, idleOnly := range [...]bool{true, false} {
		for i := 0; i < banks; i++ {
			bank := (f.nextBank + i) % banks
			if len(f.freeByBank[bank]) > 0 && (!idleOnly || f.pool.BankIdle(bank)) {
				return bank
			}
		}
	}
	return -1
}

// takeFreeBlock removes and returns a free block of headBank's bank: the
// least- or most-worn one depending on the stream (wear-aware
// allocation).
func (f *FTL) takeFreeBlock(preferWorn bool) (int, bool) {
	bank := f.headBank()
	if bank == -1 {
		return -1, false
	}
	i := 0
	if f.cfg.HotCold {
		i = f.wearAware(f.freeByBank[bank], preferWorn)
	}
	blk := f.removeFree(bank, i)
	f.pool.Take(blk)
	f.nextBank = (bank + 1) % len(f.freeByBank)
	return blk, true
}

// wearAware returns the position of the first block in list with the
// lowest erase count, or the highest when preferWorn.
func (f *FTL) wearAware(list []int, preferWorn bool) int {
	best, bestCount := 0, f.dev.EraseCount(list[0])
	for i := 1; i < len(list); i++ {
		c := f.dev.EraseCount(list[i])
		if preferWorn && c > bestCount || !preferWorn && c < bestCount {
			best, bestCount = i, c
		}
	}
	return best
}

// removeFree swap-removes and returns the block at position i of the
// bank's free list.
func (f *FTL) removeFree(bank, i int) int {
	list := f.freeByBank[bank]
	blk, last := list[i], len(list)-1
	list[i] = list[last]
	f.freeByBank[bank] = list[:last]
	return blk
}

// allocPage returns the next free physical page on the requested stream,
// opening a new log head when the current one is full. It does not clean;
// the caller guarantees space.
func (f *FTL) allocPage(hot bool) (int64, error) {
	active, ptr := &f.coldActive, &f.coldPtr
	if hot && f.cfg.HotCold {
		active, ptr = &f.hotActive, &f.hotPtr
	}
	if *active == -1 || *ptr >= f.pagesPerBlock {
		if *active != -1 {
			f.blocks[*active].isActive = false
		}
		blk, ok := f.takeFreeBlock(!hot && f.cfg.HotCold)
		if !ok {
			return -1, ErrNoSpace
		}
		f.allocSeq++
		f.blocks[blk].isActive = true
		f.blocks[blk].allocSeq = f.allocSeq
		*active = blk
		*ptr = 0
	}
	ppn := int64(*active)*int64(f.pagesPerBlock) + int64(*ptr)
	*ptr++
	return ppn, nil
}

// programPage writes one page at ppn and updates the metadata, persisting
// the OOB record when mapping persistence is on.
func (f *FTL) programPage(ppn, lpn int64, data []byte) error {
	if _, err := f.dev.Program(f.pageAddr(ppn), data); err != nil {
		return err
	}
	if f.cfg.PersistMapping {
		f.writeSeq++
		blocks.SealPageRecord(oobMagic, f.writeSeq, uint64(lpn), f.tags[lpn], f.oobBuf[:])
		if _, err := f.dev.ProgramSpare(ppn, f.oobBuf[:]); err != nil {
			return err
		}
		f.pageSeq[lpn] = f.writeSeq
	}
	b := f.blockOfPage(ppn)
	f.state[ppn] = pageValid
	f.reverse[ppn] = lpn
	f.mapping[lpn] = ppn
	f.blocks[b].valid++
	f.blocks[b].lastWrite = f.clock.Now()
	return nil
}

// WritePageTagged stores one page and associates tag with the logical
// page; the tag rides along through cleaning relocations and, with
// mapping persistence on, survives power loss in the OOB area. Higher
// layers use it to record which object and block the page belongs to.
func (f *FTL) WritePageTagged(lpn int64, data []byte, tag Tag) error {
	if err := f.checkLPN(lpn); err != nil {
		return err
	}
	if f.tags != nil {
		f.tags[lpn] = tag
	}
	return f.WritePage(lpn, data)
}

// TagOf reports the tag associated with the logical page (zero without
// mapping persistence or for a page out of range).
func (f *FTL) TagOf(lpn int64) Tag {
	if lpn < 0 || lpn >= int64(len(f.tags)) {
		return Tag{}
	}
	return f.tags[lpn]
}

// SeqOf reports the newest program sequence number of the logical page
// (0 if unknown). With mapping persistence on, sequence numbers order
// versions across power failures.
func (f *FTL) SeqOf(lpn int64) uint64 {
	if lpn < 0 || lpn >= int64(len(f.pageSeq)) {
		return 0
	}
	return f.pageSeq[lpn]
}

// ForEachMapped calls fn for every mapped logical page with its tag.
func (f *FTL) ForEachMapped(fn func(lpn int64, tag Tag)) {
	for lpn := int64(0); lpn < f.pool.LogicalPages(); lpn++ {
		if f.Mapped(lpn) {
			fn(lpn, f.TagOf(lpn))
		}
	}
}

// WritePage stores one page of data at the logical page lpn. Any tag
// previously set with WritePageTagged is preserved.
func (f *FTL) WritePage(lpn int64, data []byte) (err error) {
	if err := f.checkLPN(lpn); err != nil {
		return err
	}
	if len(data) != f.cfg.PageBytes {
		return fmt.Errorf("%w: got %d want %d", ErrBadSize, len(data), f.cfg.PageBytes)
	}
	sp := f.pool.Span("write_page")
	defer func() { sp.End(int64(len(data)), err) }()
	f.pool.NoteHostWrite(len(data))

	if f.cfg.Policy == PolicyDirect {
		return f.writeDirect(lpn, data)
	}

	if err := f.pool.EnsureSpace(); err != nil {
		return err
	}
	if err := f.levelWear(); err != nil {
		return err
	}
	hot := f.mapping[lpn] != -1
	if old := f.mapping[lpn]; old != -1 {
		f.markDead(old)
		f.mapping[lpn] = -1
	}
	ppn, err := f.allocPage(hot)
	if err != nil {
		return err
	}
	return f.programPage(ppn, lpn, data)
}

// ReadPages fetches the pages lpns names into consecutive page-sized
// slices of buf, under one span. A never-written page reads as erased
// bytes free of charge; each run of mapped pages is one device call, in
// which every page is still charged as a read of its own.
func (f *FTL) ReadPages(lpns []int64, buf []byte) (err error) {
	pb := f.cfg.PageBytes
	if len(buf) != len(lpns)*pb {
		return fmt.Errorf("%w: got %d want %d", ErrBadSize, len(buf), len(lpns)*pb)
	}
	for _, lpn := range lpns {
		if err := f.checkLPN(lpn); err != nil {
			return err
		}
	}
	sp := f.pool.Span("read_page")
	defer func() { sp.End(int64(len(buf)), err) }()
	f.pool.NoteHostReads(len(lpns))
	// run holds the device addresses of the mapped pages read into
	// buf[from*pb:]; an unmapped page or a full scratch ends it.
	run, from := f.readAddrs[:0], 0
	flush := func() error {
		if len(run) == 0 {
			return nil
		}
		_, err := f.dev.ReadPages(run, buf[from*pb:(from+len(run))*pb])
		run = run[:0]
		return err
	}
	for i, lpn := range lpns {
		ppn := f.physical(lpn)
		if ppn == -1 || len(run) == cap(run) {
			if err := flush(); err != nil {
				return err
			}
		}
		if ppn == -1 {
			// Never written: the host sees erased bytes. No physical
			// location exists to charge a device access to, so this is
			// free.
			page := buf[i*pb : (i+1)*pb]
			for j := range page {
				page[j] = 0xFF
			}
			continue
		}
		if len(run) == 0 {
			from = i
		}
		run = append(run, f.pageAddr(ppn))
	}
	return flush()
}

// physical reports the physical page holding lpn, or -1 if none does.
func (f *FTL) physical(lpn int64) int64 {
	if f.cfg.Policy == PolicyDirect {
		if f.state[lpn] != pageValid {
			return -1
		}
		return lpn
	}
	return f.mapping[lpn]
}

// TrimPage tells the layer the logical page's contents are no longer
// needed (a file was deleted), so its physical page can be reclaimed
// without being copied. The paper's storage manager depends on this to
// keep cleaning cheap under short-lived files.
func (f *FTL) TrimPage(lpn int64) error {
	if err := f.checkLPN(lpn); err != nil {
		return err
	}
	if f.cfg.Policy == PolicyDirect {
		if f.state[lpn] == pageValid {
			f.markDead(lpn)
		}
		return nil
	}
	if old := f.mapping[lpn]; old != -1 {
		f.markDead(old)
		f.mapping[lpn] = -1
	}
	if f.tags != nil {
		f.tags[lpn] = Tag{}
	}
	return nil
}

// Mapped reports whether the logical page currently holds data.
func (f *FTL) Mapped(lpn int64) bool {
	if lpn < 0 || lpn >= f.pool.LogicalPages() {
		return false
	}
	return f.physical(lpn) != -1
}

// levelWear performs static wear leveling: if the erase-count spread has
// grown past the threshold, relocate the coldest block — the least-erased
// non-free block — so its low-wear cells return to the allocation pool.
// At most one block moves per call, bounding the added write cost, and
// none while the pool is still at its reserve (nothing was cleanable):
// leveling must not spend the last free blocks. While the most-erased
// block is within the threshold no spread can pass it, so a young card
// skips the scan on every write.
func (f *FTL) levelWear() error {
	if f.cfg.WearDeltaThreshold <= 0 || f.maxErase <= f.cfg.WearDeltaThreshold ||
		f.pool.Free() <= blocks.Reserve {
		return nil
	}
	maxCount, coldest, coldCount := f.wearScan()
	if coldest == -1 || maxCount-coldCount <= f.cfg.WearDeltaThreshold {
		return nil
	}
	f.staticMoves.Inc()
	return f.pool.Clean(coldest)
}

// CleanIdle runs cleaning in the idle gap that ends at until, stopping
// when IdleCleanThreshold blocks are free (or nothing is cleanable); the
// pool starts no clean once the gap is over. The storage manager calls
// it from its daemon tick.
func (f *FTL) CleanIdle(until sim.Time) error { return f.pool.CleanIdle(until) }

// wearScan computes the device-wide maximum erase count and the coldest
// closed block, ties to the lowest id.
func (f *FTL) wearScan() (maxCount int64, coldest int, coldCount int64) {
	coldest = -1
	for b := 0; b < f.numBlocks; b++ {
		info := &f.blocks[b]
		c := f.dev.EraseCount(b)
		if c > maxCount {
			maxCount = c
		}
		if info.isActive || !f.pool.InUse(b) {
			continue
		}
		if coldest == -1 || c < coldCount {
			coldest = b
			coldCount = c
		}
	}
	return maxCount, coldest, coldCount
}

// cleanOne relocates the victim's live pages to the cold stream and
// erases it. It runs under pool.Clean, which supplies the span, the wear
// cause and the clean count.
func (f *FTL) cleanOne(victim int) error {
	if f.onClean != nil {
		f.onClean(victim)
	}
	base := int64(victim) * int64(f.pagesPerBlock)
	if cap(f.cleanBuf) < f.cfg.PageBytes {
		f.cleanBuf = make([]byte, f.cfg.PageBytes)
	}
	buf := f.cleanBuf[:f.cfg.PageBytes]
	for i := 0; i < f.pagesPerBlock; i++ {
		ppn := base + int64(i)
		if f.state[ppn] != pageValid {
			continue
		}
		lpn := f.reverse[ppn]
		if _, err := f.dev.Read(f.pageAddr(ppn), buf); err != nil {
			return err
		}
		f.markDead(ppn)
		f.mapping[lpn] = -1
		dst, err := f.allocPage(false)
		if err != nil {
			return err
		}
		if err := f.programPage(dst, lpn, buf); err != nil {
			return err
		}
		f.pool.NoteCopy()
	}
	freed, err := f.eraseBlock(victim)
	if freed {
		// Erase counts only grow, so the running maximum stays the
		// device-wide one.
		f.maxErase = max(f.maxErase, f.dev.EraseCount(victim))
		bank := f.dev.BankOf(victim)
		f.freeByBank[bank] = append(f.freeByBank[bank], victim)
	}
	return err
}

// eraseBlock hands a block with no live pages to the pool to erase or
// retire, and resets its page states if it came back free. A retirement
// is not an error — the pool shrank, but the block's pages were freed —
// and the first one is remembered for the wear experiments.
func (f *FTL) eraseBlock(blk int) (freed bool, err error) {
	freed, err = f.pool.Erase(blk)
	if err != nil {
		return false, err
	}
	if !freed {
		if f.firstWearOut == 0 {
			f.firstWearOut = f.clock.Now()
			f.firstWearOutHostBytes = f.pool.Stats().HostBytesWritten
		}
		return false, nil
	}
	base := int64(blk) * int64(f.pagesPerBlock)
	for i := 0; i < f.pagesPerBlock; i++ {
		f.state[base+int64(i)] = pageFree
		f.reverse[base+int64(i)] = -1
	}
	f.blocks[blk].valid = 0
	f.blocks[blk].dead = 0
	return true, nil
}

// victimEligible reports whether the block can be cleaned right now: it
// is closed, in use and holds at least one dead page.
func (f *FTL) victimEligible(b int) bool {
	info := &f.blocks[b]
	return !info.isActive && info.dead > 0 && f.pool.InUse(b)
}

// pickVictim chooses the next block to clean, or -1 if none is eligible.
// A candidate in a better bank class beats every one in a worse class, so
// the banks are walked best class first, and a worse class only when no
// better bank held a candidate.
func (f *FTL) pickVictim() int {
	classes := f.pool.VictimClasses()
	pick := blocks.NoVictim()
	now := f.clock.Now()
	for _, want := range [...]blocks.VictimClass{blocks.Quiet, blocks.Idle, blocks.Busy} {
		for bank, class := range classes {
			if class == want {
				f.offerBank(&pick, bank, class, now)
			}
		}
		if pick.Block != -1 {
			break
		}
	}
	return pick.Block
}

// offerBank offers the bank's candidates, in one pass over its blocks (a
// bank is a contiguous range of block ids). FIFO and greedy offer every
// eligible block. Cost-benefit's score age×(1−u)/(1+u) grows with age
// alone at a fixed valid count, so only each valid count's oldest block
// can win and only those are scored: the division stays off every other
// block.
func (f *FTL) offerBank(pick *blocks.Victim, bank int, class blocks.VictimClass, now sim.Time) {
	perBank := f.numBlocks / len(f.freeByBank)
	lo, hi := bank*perBank, (bank+1)*perBank
	if f.cfg.Policy != PolicyCostBenefit {
		for b := lo; b < hi; b++ {
			if f.victimEligible(b) {
				pick.Offer(b, class, f.victimScore(b, now))
			}
		}
		return
	}
	for i := range f.oldest {
		f.oldest[i] = -1
	}
	for b := lo; b < hi; b++ {
		if !f.victimEligible(b) {
			continue
		}
		v := f.blocks[b].valid
		if o := f.oldest[v]; o == -1 || f.blocks[b].lastWrite < f.blocks[o].lastWrite {
			f.oldest[v] = b
		}
	}
	for _, b := range f.oldest {
		if b != -1 {
			pick.Offer(b, class, f.victimScore(b, now))
		}
	}
}

// victimScore is the policy's own order over eligible blocks: larger is
// cleaned first.
func (f *FTL) victimScore(b int, now sim.Time) float64 {
	info := &f.blocks[b]
	switch f.cfg.Policy {
	case PolicyFIFO:
		// Oldest log head first: smaller allocSeq = better. Negate so
		// larger score wins uniformly.
		return -float64(info.allocSeq)
	case PolicyCostBenefit:
		u := float64(info.valid) / float64(f.pagesPerBlock)
		age := now.Sub(info.lastWrite).Seconds() + 1e-9
		return age * (1 - u) / (1 + u)
	default: // greedy
		return float64(info.dead)
	}
}

// writeDirect implements the no-translation baseline: the logical page
// lives at the identical physical page, and overwriting it means erasing
// and reprogramming the whole block.
func (f *FTL) writeDirect(lpn int64, data []byte) error {
	ppn := lpn
	blk := f.blockOfPage(ppn)
	if f.pool.IsRetired(blk) {
		return fmt.Errorf("%w: block %d retired", ErrDeviceWorn, blk)
	}
	if f.pool.IsFree(blk) {
		f.pool.Take(blk)
	}
	if f.state[ppn] == pageFree {
		return f.programPage(ppn, lpn, data)
	}
	// Read–modify–erase–rewrite of the whole block.
	base := int64(blk) * int64(f.pagesPerBlock)
	live := make(map[int64][]byte)
	buf := make([]byte, f.cfg.PageBytes)
	for i := 0; i < f.pagesPerBlock; i++ {
		p := base + int64(i)
		if p == ppn || f.state[p] != pageValid {
			continue
		}
		if _, err := f.dev.Read(f.pageAddr(p), buf); err != nil {
			return err
		}
		cp := make([]byte, len(buf))
		copy(cp, buf)
		live[p] = cp
	}
	freed, err := f.eraseBlock(blk)
	if err != nil {
		return err
	}
	if !freed {
		return fmt.Errorf("%w: block %d", ErrDeviceWorn, blk)
	}
	// The block goes straight back into use: reprogram the survivors
	// plus the new page.
	f.pool.Take(blk)
	for p, d := range live {
		if err := f.programPage(p, p, d); err != nil {
			return err
		}
		f.pool.NoteCopy()
	}
	return f.programPage(ppn, lpn, data)
}

// FreeBlocks reports the current free-block count.
func (f *FTL) FreeBlocks() int { return f.pool.Free() }

// RetiredBlocks reports how many blocks have worn out of service, as
// Stats does, without computing the rest of Stats.
func (f *FTL) RetiredBlocks() int { return f.pool.Retired() }

// CleanerLag reports how many blocks the cleaner is behind its
// free-space target (see blocks.Pool.CleanerLag).
func (f *FTL) CleanerLag() int { return f.pool.CleanerLag() }

// PersistsMapping reports whether OOB records make the mapping
// crash-recoverable.
func (f *FTL) PersistsMapping() bool { return f.cfg.PersistMapping }

// DiffsOverwrites is always false: every write programs a whole page.
func (f *FTL) DiffsOverwrites() bool { return false }

// Stats is the block pool's view of the layer's counters and the device.
func (f *FTL) Stats() engine.Stats { return f.pool.Stats() }

// WearStats reports the layer's own wear counters.
func (f *FTL) WearStats() WearStats {
	return WearStats{
		StaticMoves:           f.staticMoves.Value(),
		FirstWearOut:          f.firstWearOut,
		FirstWearOutHostBytes: f.firstWearOutHostBytes,
	}
}

// CheckInvariants verifies internal consistency; tests call it after
// random operation sequences. It returns the first violation found.
func (f *FTL) CheckInvariants() error {
	if f.cfg.Policy == PolicyDirect {
		return nil
	}
	for lpn, ppn := range f.mapping {
		if ppn == -1 {
			continue
		}
		if f.reverse[ppn] != int64(lpn) {
			return fmt.Errorf("mapping %d→%d but reverse %d→%d", lpn, ppn, ppn, f.reverse[ppn])
		}
		if f.state[ppn] != pageValid {
			return fmt.Errorf("mapped page %d not valid", ppn)
		}
	}
	for b := 0; b < f.numBlocks; b++ {
		base := int64(b) * int64(f.pagesPerBlock)
		valid, dead := 0, 0
		for i := 0; i < f.pagesPerBlock; i++ {
			switch f.state[base+int64(i)] {
			case pageValid:
				valid++
			case pageDead:
				dead++
			}
		}
		if valid != f.blocks[b].valid || dead != f.blocks[b].dead {
			return fmt.Errorf("block %d counts valid=%d/%d dead=%d/%d",
				b, f.blocks[b].valid, valid, f.blocks[b].dead, dead)
		}
	}
	if err := f.pool.CheckInvariants(); err != nil {
		return err
	}
	if maxCount, _, _ := f.wearScan(); f.maxErase != maxCount {
		return fmt.Errorf("maintained max erase %d, scan max %d", f.maxErase, maxCount)
	}
	return nil
}
