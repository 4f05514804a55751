// Package pdl implements a page-differential-logging storage engine
// (after Kim, Whang & Song): an overwritten page persists only the diff
// against its current image, as a small delta record appended to a log
// unit, instead of re-programming the whole page. The paper's trace
// model says most writes are overwrites of recently-written data, so
// diffs slash flash bytes programmed — and with them write amplification
// and erase load — exactly where the FTL cleaner collapses past the
// saturation knee.
//
// Layout. Blocks are single-purpose: a block holds either base pages
// (one full page image per unit, claimed by a CRC-folded spare record
// carrying seq/lpn/tag, like the FTL's OOB records) or delta log units
// (the unit's spare record marks it as a log; delta records pack
// sequentially into its data area, each CRC-folded over a header of
// seq/lpn/offset/length plus the payload). One monotone sequence number
// orders every base and delta program, so Mount can rebuild each page by
// scanning the device: newest base claim wins, then every delta with a
// newer sequence applies in order.
//
// Reads merge on the fly: base page plus chained deltas. The write path
// bounds the chain — once it holds maxChain records, or a diff grows past
// half a page, the next overwrite promotes the page to a fresh base write
// and the chain dies. Mount can install a longer chain (it attaches every
// surviving record newer than the base); the next overwrite promotes it.
// Cleaning is crash-safe by construction: a page is only ever
// moved by promoting it (a fresh base supersedes everything older
// atomically) or by folding its whole chain into one delta record whose
// content equals the chain's net effect (reapplying surviving old
// records before it cannot change the outcome).
package pdl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"ssmobile/internal/engine"
	"ssmobile/internal/engine/blocks"
	"ssmobile/internal/flash"
	"ssmobile/internal/obs"
	"ssmobile/internal/sim"
)

// Sentinel errors.
var (
	// ErrNoSpace reports that every block is live and nothing can be
	// reclaimed.
	ErrNoSpace = blocks.ErrNoSpace
	// ErrBadPage reports an out-of-range logical page number.
	ErrBadPage = errors.New("pdl: logical page out of range")
	// ErrBadSize reports data whose length is not exactly one page.
	ErrBadSize = errors.New("pdl: data must be exactly one page")
)

// Config parameterises the engine.
type Config struct {
	// PageBytes is the mapping granularity; it must divide the device's
	// erase-block size and equal the device's spare-unit size.
	PageBytes int
	// IdleCleanThreshold lets CleanIdle reclaim during idle periods
	// until this many blocks are free. Zero disables idle cleaning.
	IdleCleanThreshold int
	// Obs receives the engine's metrics and op spans; nil means standalone
	// collectors, nothing exported.
	Obs *obs.Observer
}

type blockKind uint8

const (
	blockUnused blockKind = iota // free or retired: the pool knows which
	blockBase
	blockDelta
)

type blockInfo struct {
	kind   blockKind
	active bool // current base or delta log head
	// unitsUsed counts page-sized units consumed (base pages written,
	// or delta units opened).
	unitsUsed int
	// appended is the record bytes written into a delta block's units.
	appended int64
	// live* track what cleaning would have to move.
	liveBases      int
	liveDeltas     int
	liveDeltaBytes int64
}

// deltaRef locates one live delta record of a page's chain. off and n
// fit the record header's uint16 fields.
type deltaRef struct {
	seq  uint64
	addr int64 // device byte address of the record
	off  int32 // page offset the payload patches
	n    int32 // payload length
}

// rec is the record's total size on flash, header included.
func (d deltaRef) rec() int64 { return deltaHdrBytes + int64(d.n) }

// touchNode is one entry of the per-block touch index: a page some delta
// record in the block was written for, chained to the block's next entry.
type touchNode struct {
	lpn  uint32 // the width a delta record's header gives a page number
	next int32  // arena index of the next entry, -1 at the end
}

// pageMeta is a logical page: its base unit and delta chain (sorted by
// ascending sequence; deltas apply cumulatively on top of the base). A
// chain with no records is nil: a window is held only while in use.
type pageMeta struct {
	basePpn int64 // -1 when unmapped
	baseSeq uint64
	tag     engine.Tag
	chain   []deltaRef
}

// maxChain bounds the chain the write path builds: an overwrite of a page
// whose chain holds maxChain records (or more, as Mount may install)
// promotes the page to a fresh base write. It is also a chain window's
// capacity.
const maxChain = 8

// Engine is the page-differential log over one flash device. Not safe
// for concurrent use.
type Engine struct {
	dev   *flash.Device
	clock *sim.Clock
	cfg   Config
	// pool is the block ledger: free/in-use/retired states, logical
	// capacity, erase-or-retire, mount recovery and the space-pressure
	// loop. The engine keeps policy and page format.
	pool *blocks.Pool

	ppb       int // page-sized units per erase block
	numBlocks int

	pages  []pageMeta
	rev    []int64 // unit → lpn for live base pages, -1 otherwise
	blocks []blockInfo

	// The touch index answers "whose chain records does this delta block
	// hold?" without walking the page table: one list per block of the
	// pages a record was appended for, kept in a single node arena so a
	// record costs no allocation once the arena has grown. Entries are
	// never removed one at a time — a list may name a page twice, or a
	// page whose record has since been superseded — so it is a superset
	// that victimPages filters; a block's list returns to the free list
	// whole when the block is erased.
	touchHead []int32 // block → first arena node, -1 when empty
	touchFree int32   // head of the free-node list, -1 when empty
	touch     []touchNode
	work      []int64 // victimPages' result, reused across cleans

	// Chain storage: a page's first record takes a maxChain-record window
	// from spare, which is refilled 256 windows at a time from one new
	// slab when it runs dry; a dying chain's window goes back. A chain
	// that outgrows its window (only Mount builds one) spills to the heap
	// by append, and its spilled array is what goes back.
	spare [][]deltaRef

	baseActive  int // block id of the base log head, -1 when none
	basePtr     int // next unit within it
	deltaActive int // block id of the delta log head, -1 when none
	deltaPtr    int // current unit within it
	deltaOff    int // append offset within that unit

	// promoteBytes is the diff size at which writing a delta stops
	// paying: a diff at or above it writes a fresh base instead.
	promoteBytes int

	writeSeq uint64
	cleaning bool // suppresses EnsureSpace recursion under cleanOne

	// Reusable hot-path scratch: mergeBuf holds one merged page image,
	// recBuf one outgoing delta record, oobBuf one spare record. The
	// engine is single-threaded and the device copies all of them out.
	mergeBuf []byte
	recBuf   []byte
	oobBuf   [blocks.PageRecordBytes]byte

	deltaWrites, promotion *obs.Counter
}

var _ engine.Engine = (*Engine)(nil)

// New builds a page-differential log over dev. The device must be
// freshly erased (all blocks free), which is how flash.New delivers it.
func New(dev *flash.Device, clock *sim.Clock, cfg Config) (*Engine, error) {
	e := &Engine{dev: dev, clock: clock, baseActive: -1, deltaActive: -1}
	pool, err := blocks.New(dev, clock, cfg.Obs, "pdl", cfg.PageBytes, cfg.IdleCleanThreshold,
		e.pickVictim, e.cleanOne, e.logHeads)
	if err != nil {
		return nil, err
	}
	if err := pool.RequireSpare(); err != nil {
		return nil, err
	}
	// A record must fit in one log unit.
	e.promoteBytes = min(cfg.PageBytes/2, cfg.PageBytes-deltaHdrBytes)
	e.cfg, e.pool = cfg, pool
	e.ppb, e.numBlocks = pool.PagesPerBlock(), dev.NumBlocks()
	e.pages = make([]pageMeta, pool.LogicalPages())
	e.rev = make([]int64, int64(e.numBlocks)*int64(e.ppb))
	e.blocks = make([]blockInfo, e.numBlocks)
	e.touchHead = make([]int32, e.numBlocks)
	e.touchFree = -1
	// Sized once so the steady state never allocates: the arena starts
	// with room for a record per page and grows by append past that; the
	// work list can never outgrow a block's units plus the records that
	// fit in it.
	e.touch = make([]touchNode, 0, len(e.pages))
	e.work = make([]int64, 0, e.ppb+dev.BlockBytes()/(deltaHdrBytes+1))
	e.mergeBuf = make([]byte, cfg.PageBytes)
	e.recBuf = make([]byte, deltaHdrBytes+cfg.PageBytes)
	for i := range e.pages {
		e.pages[i].basePpn = -1
	}
	for i := range e.rev {
		e.rev[i] = -1
	}
	for i := range e.touchHead {
		e.touchHead[i] = -1
	}
	e.deltaWrites = cfg.Obs.Counter("delta_writes_total", obs.Labels{"layer": "pdl"})
	e.promotion = cfg.Obs.Counter("promotions_total", obs.Labels{"layer": "pdl"})
	return e, nil
}

// PageBytes reports the mapping granularity.
func (e *Engine) PageBytes() int { return e.cfg.PageBytes }

// LogicalPages reports the host-visible capacity in pages.
func (e *Engine) LogicalPages() int64 { return e.pool.LogicalPages() }

// LogicalBytes reports the host-visible capacity in bytes.
func (e *Engine) LogicalBytes() int64 { return e.pool.LogicalPages() * int64(e.cfg.PageBytes) }

// Device exposes the underlying flash device.
func (e *Engine) Device() *flash.Device { return e.dev }

// PersistsMapping is always true: every base and delta program carries a
// CRC-folded record, so Mount rebuilds the full mapping by device scan.
func (e *Engine) PersistsMapping() bool { return true }

// DiffsOverwrites is always true: an overwrite of a mapped page appends a
// delta of the changed range to the page's chain.
func (e *Engine) DiffsOverwrites() bool { return true }

// MountStats reports what the Mount scan found; zero for an engine
// built with New.
func (e *Engine) MountStats() engine.MountStats { return e.pool.MountStats() }

func (e *Engine) checkLPN(lpn int64) error {
	if lpn < 0 || lpn >= e.pool.LogicalPages() {
		return fmt.Errorf("%w: %d of %d", ErrBadPage, lpn, e.pool.LogicalPages())
	}
	return nil
}

func (e *Engine) unitAddr(ppn int64) int64 { return ppn * int64(e.cfg.PageBytes) }

func (e *Engine) blockOf(ppn int64) int { return int(ppn / int64(e.ppb)) }

func (e *Engine) blockOfAddr(addr int64) int { return int(addr / int64(e.dev.BlockBytes())) }

// Mapped reports whether the logical page currently holds data.
func (e *Engine) Mapped(lpn int64) bool {
	return lpn >= 0 && lpn < e.pool.LogicalPages() && e.pages[lpn].basePpn != -1
}

// TagOf reports the tag associated with the logical page.
func (e *Engine) TagOf(lpn int64) engine.Tag {
	if !e.Mapped(lpn) {
		return engine.Tag{}
	}
	return e.pages[lpn].tag
}

// SeqOf reports the newest program sequence of the logical page (0 if
// unmapped) — the last delta's sequence, or the base's when the chain is
// empty.
func (e *Engine) SeqOf(lpn int64) uint64 {
	if !e.Mapped(lpn) {
		return 0
	}
	pm := &e.pages[lpn]
	if n := len(pm.chain); n > 0 {
		return pm.chain[n-1].seq
	}
	return pm.baseSeq
}

// ForEachMapped calls fn for every mapped logical page with its tag.
func (e *Engine) ForEachMapped(fn func(lpn int64, tag engine.Tag)) {
	for lpn := int64(0); lpn < e.pool.LogicalPages(); lpn++ {
		if e.pages[lpn].basePpn != -1 {
			fn(lpn, e.pages[lpn].tag)
		}
	}
}

// WritePageTagged stores one page. An unmapped page (or a tag change,
// which only a base record can persist) writes a fresh base; a mapped
// page diffs against its current image and appends only the changed
// range as a delta record, promoting to a fresh base when the chain or
// the diff has grown past the configured bounds.
func (e *Engine) WritePageTagged(lpn int64, data []byte, tag engine.Tag) (err error) {
	if err := e.checkLPN(lpn); err != nil {
		return err
	}
	if len(data) != e.cfg.PageBytes {
		return fmt.Errorf("%w: got %d want %d", ErrBadSize, len(data), e.cfg.PageBytes)
	}
	sp := e.pool.Span("write_page")
	defer func() { sp.End(int64(len(data)), err) }()
	e.pool.NoteHostWrite(len(data))

	pm := &e.pages[lpn]
	if pm.basePpn == -1 || tag != pm.tag {
		return e.writeBase(lpn, data, tag)
	}
	// Diff against the current merged image; the reads are charged
	// device work — the price of knowing what changed.
	if err := e.mergeInto(lpn, e.mergeBuf); err != nil {
		return err
	}
	lo, hi := diffRange(e.mergeBuf, data)
	if lo >= hi {
		// Identical to what is already durable: nothing to persist.
		return nil
	}
	if len(pm.chain) >= maxChain || hi-lo >= e.promoteBytes {
		e.promotion.Inc()
		return e.writeBase(lpn, data, tag)
	}
	return e.appendDelta(lpn, lo, data[lo:hi])
}

// diffRange returns the smallest [lo, hi) covering every byte where old
// and new differ; lo == hi means the images are identical. Equal words
// are skipped eight bytes at a time from both ends; the byte loops finish
// inside the first and last differing word.
func diffRange(old, new []byte) (lo, hi int) {
	n := len(old)
	new = new[:n]
	for ; lo+8 <= n; lo += 8 {
		if binary.LittleEndian.Uint64(old[lo:]) != binary.LittleEndian.Uint64(new[lo:]) {
			break
		}
	}
	for ; lo < n && old[lo] == new[lo]; lo++ {
	}
	if lo == n {
		return n, n
	}
	// old[lo] differs, so both backward loops stop at or above lo+1.
	for hi = n; hi-8 > lo; hi -= 8 {
		if binary.LittleEndian.Uint64(old[hi-8:]) != binary.LittleEndian.Uint64(new[hi-8:]) {
			break
		}
	}
	for ; old[hi-1] == new[hi-1]; hi-- {
	}
	return lo, hi
}

// writeBase programs a full fresh base page for lpn. Its new sequence
// number supersedes the old base and every chained delta at Mount, so
// the in-memory supersede below is crash-equivalent.
func (e *Engine) writeBase(lpn int64, data []byte, tag engine.Tag) error {
	if !e.cleaning {
		if err := e.pool.EnsureSpace(); err != nil {
			return err
		}
	}
	ppn, err := e.allocBaseUnit()
	if err != nil {
		return err
	}
	if _, err := e.dev.Program(e.unitAddr(ppn), data); err != nil {
		return err
	}
	e.writeSeq++
	blocks.SealPageRecord(unitMagic, e.writeSeq, unitWord(unitKindBase, lpn), tag, e.oobBuf[:])
	if _, err := e.dev.ProgramSpare(ppn, e.oobBuf[:]); err != nil {
		return err
	}
	e.supersede(lpn)
	pm := &e.pages[lpn]
	pm.basePpn, pm.baseSeq, pm.tag = ppn, e.writeSeq, tag
	e.rev[ppn] = lpn
	e.blocks[e.blockOf(ppn)].liveBases++
	return nil
}

// supersede releases the page's current base and chain accounting (the
// on-flash records stay until their blocks are erased; newer sequence
// numbers keep them dead across a remount).
func (e *Engine) supersede(lpn int64) {
	pm := &e.pages[lpn]
	if pm.basePpn != -1 {
		e.blocks[e.blockOf(pm.basePpn)].liveBases--
		e.rev[pm.basePpn] = -1
	}
	e.releaseChain(pm)
	pm.basePpn = -1
	pm.baseSeq = 0
}

func (e *Engine) releaseChain(pm *pageMeta) {
	for i := range pm.chain {
		b := e.blockOfAddr(pm.chain[i].addr)
		e.blocks[b].liveDeltas--
		e.blocks[b].liveDeltaBytes -= pm.chain[i].rec()
	}
	if pm.chain != nil {
		e.spare = append(e.spare, pm.chain[:0:maxChain])
	}
	pm.chain = nil
}

// appendDelta writes one delta record to the delta log head.
func (e *Engine) appendDelta(lpn int64, off int, payload []byte) error {
	rec := deltaHdrBytes + len(payload)
	if !e.cleaning {
		if err := e.pool.EnsureSpace(); err != nil {
			return err
		}
	}
	addr, err := e.deltaSpace(rec)
	if err != nil {
		return err
	}
	e.writeSeq++
	buf := e.recBuf[:rec]
	encodeDeltaRecord(buf, e.writeSeq, lpn, off, payload)
	if _, err := e.dev.Program(addr, buf); err != nil {
		return err
	}
	e.attach(lpn, deltaRef{seq: e.writeSeq, addr: addr, off: int32(off), n: int32(len(payload))})
	e.deltaWrites.Inc()
	return nil
}

// attach appends a record to the page's chain: the one place a deltaRef
// becomes live, so its block's live counts and touch list are written
// here and nowhere else.
func (e *Engine) attach(lpn int64, d deltaRef) {
	pm := &e.pages[lpn]
	if pm.chain == nil {
		if len(e.spare) == 0 {
			slab := make([]deltaRef, 256*maxChain)
			e.spare = slices.Grow(e.spare, 256)
			for i := 0; i < len(slab); i += maxChain {
				e.spare = append(e.spare, slab[i:i:i+maxChain])
			}
		}
		pm.chain, e.spare = e.spare[len(e.spare)-1], e.spare[:len(e.spare)-1]
	}
	pm.chain = append(pm.chain, d)
	b := e.blockOfAddr(d.addr)
	e.blocks[b].liveDeltas++
	e.blocks[b].liveDeltaBytes += d.rec()

	n := e.touchFree
	if n != -1 {
		e.touchFree = e.touch[n].next
	} else {
		n = int32(len(e.touch))
		e.touch = append(e.touch, touchNode{})
	}
	e.touch[n] = touchNode{lpn: uint32(lpn), next: e.touchHead[b]}
	e.touchHead[b] = n
}

// deltaSpace reserves rec bytes in the delta log, opening the next unit
// (its spare record marks it as a log before any record lands in it —
// the crash-ordering that keeps torn tails invisible) or a fresh block
// as needed, and returns the record's device address.
func (e *Engine) deltaSpace(rec int) (int64, error) {
	for {
		if e.deltaActive != -1 && e.deltaOff+rec <= e.cfg.PageBytes {
			ppn := int64(e.deltaActive)*int64(e.ppb) + int64(e.deltaPtr)
			addr := e.unitAddr(ppn) + int64(e.deltaOff)
			e.deltaOff += rec
			e.blocks[e.deltaActive].appended += int64(rec)
			return addr, nil
		}
		if e.deltaActive != -1 && e.deltaPtr+1 < e.ppb {
			e.deltaPtr++
		} else {
			if e.deltaActive != -1 {
				e.blocks[e.deltaActive].active = false
			}
			blk, ok := e.takeFreeBlock()
			if !ok {
				return 0, ErrNoSpace
			}
			e.blocks[blk].kind = blockDelta
			e.blocks[blk].active = true
			e.deltaActive = blk
			e.deltaPtr = 0
		}
		e.deltaOff = 0
		ppn := int64(e.deltaActive)*int64(e.ppb) + int64(e.deltaPtr)
		e.writeSeq++
		blocks.SealPageRecord(unitMagic, e.writeSeq, unitWord(unitKindDelta, 0), engine.Tag{}, e.oobBuf[:])
		if _, err := e.dev.ProgramSpare(ppn, e.oobBuf[:]); err != nil {
			return 0, err
		}
		e.blocks[e.deltaActive].unitsUsed++
	}
}

// allocBaseUnit returns the next unit of the base log head, opening a
// fresh block when the head is full. It does not clean; the caller
// guarantees space.
func (e *Engine) allocBaseUnit() (int64, error) {
	if e.baseActive == -1 || e.basePtr >= e.ppb {
		if e.baseActive != -1 {
			e.blocks[e.baseActive].active = false
		}
		blk, ok := e.takeFreeBlock()
		if !ok {
			return -1, ErrNoSpace
		}
		e.blocks[blk].kind = blockBase
		e.blocks[blk].active = true
		e.baseActive = blk
		e.basePtr = 0
	}
	ppn := int64(e.baseActive)*int64(e.ppb) + int64(e.basePtr)
	e.basePtr++
	e.blocks[e.baseActive].unitsUsed++
	return ppn, nil
}

// logHeads names the blocks of the two open log heads for the pool, -1
// for a log that has none.
func (e *Engine) logHeads() (int, int) { return e.baseActive, e.deltaActive }

// freeBlock picks the block the next log head opens in, or -1 when none
// is free: the lowest-numbered free block in a bank with nothing in
// progress — the blocks a clean just freed are still erasing, and a head
// opened in one waits the erase out on its first program — or, when every
// free block's bank is busy, the lowest-numbered free block.
// Deterministic, and wear-unaware for now (the device's own telemetry
// tracks the spread).
func (e *Engine) freeBlock() int {
	first := -1
	for b := 0; b < e.numBlocks; b++ {
		if !e.pool.IsFree(b) {
			continue
		}
		if e.pool.BankIdle(e.dev.BankOf(b)) {
			return b
		}
		if first == -1 {
			first = b
		}
	}
	return first
}

// takeFreeBlock removes and returns freeBlock's choice.
func (e *Engine) takeFreeBlock() (int, bool) {
	blk := e.freeBlock()
	if blk == -1 {
		return -1, false
	}
	e.pool.Take(blk)
	return blk, true
}

// mergeInto reads the page's current image into buf: the base page,
// then every chained delta in sequence order. All charged device reads.
func (e *Engine) mergeInto(lpn int64, buf []byte) error {
	pm := &e.pages[lpn]
	if _, err := e.dev.Read(e.unitAddr(pm.basePpn), buf); err != nil {
		return err
	}
	for i := range pm.chain {
		d := &pm.chain[i]
		if _, err := e.dev.Read(d.addr+deltaHdrBytes, buf[d.off:d.off+d.n]); err != nil {
			return err
		}
	}
	return nil
}

// ReadPages fetches the pages lpns names into consecutive page-sized
// slices of buf under one span, each merged from its base image and
// delta chain by device reads of its own.
func (e *Engine) ReadPages(lpns []int64, buf []byte) (err error) {
	pb := e.cfg.PageBytes
	if len(buf) != len(lpns)*pb {
		return fmt.Errorf("%w: got %d want %d", ErrBadSize, len(buf), len(lpns)*pb)
	}
	for _, lpn := range lpns {
		if err := e.checkLPN(lpn); err != nil {
			return err
		}
	}
	sp := e.pool.Span("read_page")
	defer func() { sp.End(int64(len(buf)), err) }()
	e.pool.NoteHostReads(len(lpns))
	for i, lpn := range lpns {
		page := buf[i*pb : (i+1)*pb]
		if e.pages[lpn].basePpn == -1 {
			// Never written: the host sees erased bytes, free of charge.
			for j := range page {
				page[j] = 0xFF
			}
			continue
		}
		if err := e.mergeInto(lpn, page); err != nil {
			return err
		}
	}
	return nil
}

// TrimPage drops the logical page. The on-flash records stay until
// cleaning erases them, so a trimmed page may resurrect after a power
// cut — but only with bytes it actually held, which is the contract.
func (e *Engine) TrimPage(lpn int64) error {
	if err := e.checkLPN(lpn); err != nil {
		return err
	}
	if e.pages[lpn].basePpn == -1 {
		return nil
	}
	e.supersede(lpn)
	e.pages[lpn].tag = engine.Tag{}
	return nil
}

// FreeBlocks reports the current free-block count.
func (e *Engine) FreeBlocks() int { return e.pool.Free() }

// CleanerLag reports how many blocks the cleaner is behind its
// free-space target — the pool's definition, shared with the FTL, so the
// serving layer's admission control works unchanged.
func (e *Engine) CleanerLag() int { return e.pool.CleanerLag() }

// CleanIdle reclaims in the idle gap that ends at until, stopping when
// IdleCleanThreshold blocks are free (or nothing has dead space), taking
// cleaning off the write path; the pool starts no clean once the gap is
// over.
func (e *Engine) CleanIdle(until sim.Time) error { return e.pool.CleanIdle(until) }

// pickVictim returns the closed block with the most dead bytes, or -1,
// looking first where an erase is hidden: among the blocks whose bank has
// the best class of the moment (nothing in progress and neither log head;
// else nothing in progress; else any). Dead bytes are what an erase
// reclaims beyond what relocation must rewrite; a block with none offers
// no gain.
func (e *Engine) pickVictim() int {
	classes := e.pool.VictimClasses()
	pick := blocks.NoVictim()
	for b := 0; b < e.numBlocks; b++ {
		if dead := e.deadBytes(b); dead > 0 {
			pick.Offer(b, classes[e.dev.BankOf(b)], float64(dead))
		}
	}
	return pick.Block
}

// deadBytes reports what erasing the block would reclaim beyond what its
// relocation must rewrite; 0 for a block that cannot be cleaned (a log
// head, or not in use).
func (e *Engine) deadBytes(b int) int64 {
	info := &e.blocks[b]
	if info.active || info.unitsUsed == 0 || !e.pool.InUse(b) {
		return 0
	}
	if info.kind == blockBase {
		return int64(info.unitsUsed-info.liveBases) * int64(e.cfg.PageBytes)
	}
	return info.appended - info.liveDeltaBytes
}

// victimPages lists, in ascending order, every page with state in the
// block: the pages whose base unit it holds (the reverse map says which)
// and the pages with a chain record in it (the touch list, filtered down
// to chains that still reach into the block). The cost is the block's,
// not the card's. The result is scratch, valid until the next call.
func (e *Engine) victimPages(victim int) []int64 {
	w := e.work[:0]
	first := int64(victim) * int64(e.ppb)
	for _, lpn := range e.rev[first : first+int64(e.ppb)] {
		if lpn != -1 {
			w = append(w, lpn)
		}
	}
	lo := e.dev.BlockAddr(victim)
	hi := lo + int64(e.dev.BlockBytes())
	for n := e.touchHead[victim]; n != -1; n = e.touch[n].next {
		lpn := int64(e.touch[n].lpn)
		pm := &e.pages[lpn]
		for i := range pm.chain {
			if a := pm.chain[i].addr; a >= lo && a < hi {
				w = append(w, lpn)
				break
			}
		}
	}
	slices.Sort(w)
	w = slices.Compact(w)
	e.work = w
	return w
}

// cleanOne relocates every page with state in the victim block and
// erases it. Relocation is crash-safe: a page either promotes (a fresh
// base atomically supersedes its history) or folds its whole chain into
// one delta record whose content equals the chain's net effect — at any
// power cut the scan reconstructs either the old image or the new one,
// never a hybrid. It runs under pool.Clean, which supplies the span, the
// wear cause and the clean count.
func (e *Engine) cleanOne(victim int) error {
	e.cleaning = true
	defer func() { e.cleaning = false }()

	// Ascending page order fixes the sequence numbers and log-head
	// positions the relocations get. The list is taken once — the victim
	// is never a log head, so moving one page cannot change whether another
	// has state in it — and it reaches pages beyond the current logical
	// capacity: a retirement shrinks the capacity, but a page mapped in the
	// truncated tail still has live state that must move before its block
	// is erased.
	for _, lpn := range e.victimPages(victim) {
		pm := &e.pages[lpn]
		mustPromote := e.blockOf(pm.basePpn) == victim
		if err := e.mergeInto(lpn, e.mergeBuf); err != nil {
			return err
		}
		lo, hi := 0, 0
		if !mustPromote {
			lo, hi = chainHull(pm.chain)
		}
		if mustPromote || hi-lo >= e.promoteBytes {
			if err := e.writeBase(lpn, e.mergeBuf, pm.tag); err != nil {
				return err
			}
		} else if err := e.foldChain(lpn, lo, hi); err != nil {
			return err
		}
		e.pool.NoteCopy()
	}
	// Erased back into the free pool, or retired if it has worn out:
	// either way the block no longer holds anything of ours.
	_, err := e.pool.Erase(victim)
	if err != nil {
		return err
	}
	base := int64(victim) * int64(e.ppb)
	for i := 0; i < e.ppb; i++ {
		e.rev[base+int64(i)] = -1
	}
	e.blocks[victim] = blockInfo{}
	e.releaseTouched(victim)
	return nil
}

// releaseTouched hands the block's whole touch list back to the free
// list.
func (e *Engine) releaseTouched(b int) {
	head := e.touchHead[b]
	if head == -1 {
		return
	}
	tail := head
	for e.touch[tail].next != -1 {
		tail = e.touch[tail].next
	}
	e.touch[tail].next = e.touchFree
	e.touchFree = head
	e.touchHead[b] = -1
}

// chainHull returns the smallest [lo, hi) covering every chained
// delta's range.
func chainHull(chain []deltaRef) (lo, hi int) {
	l, h := chain[0].off, chain[0].off+chain[0].n
	for i := 1; i < len(chain); i++ {
		l = min(l, chain[i].off)
		h = max(h, chain[i].off+chain[i].n)
	}
	return int(l), int(h)
}

// foldChain replaces the page's whole chain with a single delta record
// covering the chain's hull, payload taken from the already-merged image
// in mergeBuf. Old records survive on flash with older sequence numbers;
// reapplying them under the folded record reproduces the same bytes, so
// a cut anywhere leaves a consistent image.
func (e *Engine) foldChain(lpn int64, lo, hi int) error {
	rec := deltaHdrBytes + (hi - lo)
	addr, err := e.deltaSpace(rec)
	if err != nil {
		return err
	}
	e.writeSeq++
	buf := e.recBuf[:rec]
	encodeDeltaRecord(buf, e.writeSeq, lpn, lo, e.mergeBuf[lo:hi])
	if _, err := e.dev.Program(addr, buf); err != nil {
		return err
	}
	e.releaseChain(&e.pages[lpn])
	e.attach(lpn, deltaRef{seq: e.writeSeq, addr: addr, off: int32(lo), n: int32(hi - lo)})
	return nil
}

// Stats summarises the engine counters.
func (e *Engine) Stats() engine.Stats { return e.pool.Stats() }

// DeltaWrites reports how many overwrites were absorbed as delta
// records; Promotions how many overwrites forced a fresh base because
// the chain or the diff outgrew its bound. E15 reads both.
func (e *Engine) DeltaWrites() int64 { return e.deltaWrites.Value() }

// Promotions reports chain-bound and diff-size promotions to a fresh
// base.
func (e *Engine) Promotions() int64 { return e.promotion.Value() }

// CheckInvariants verifies internal consistency; the crash-test
// enumerator calls it after every simulated power cut. It returns the
// first violation found.
func (e *Engine) CheckInvariants() error {
	type tally struct {
		bases      int
		deltas     int
		deltaBytes int64
	}
	tallies := make([]tally, e.numBlocks)
	// The touch index, read once: which (block, page) pairs it lists, and
	// that the block lists and the free list (walked as block -1) together
	// are the arena, each node once.
	type blockPage struct {
		b   int
		lpn uint32
	}
	listed := make(map[blockPage]struct{})
	nodes := 0
	walk := func(b int, n int32) error {
		for ; n != -1; n = e.touch[n].next {
			if nodes++; nodes > len(e.touch) {
				return fmt.Errorf("pdl: touch lists share nodes or loop (arena of %d)", len(e.touch))
			}
			listed[blockPage{b, e.touch[n].lpn}] = struct{}{}
		}
		return nil
	}
	for b, head := range e.touchHead {
		if head != -1 && e.blocks[b].kind != blockDelta {
			return fmt.Errorf("pdl: non-delta block %d has a touch list", b)
		}
		if err := walk(b, head); err != nil {
			return err
		}
	}
	if err := walk(-1, e.touchFree); err != nil {
		return err
	}
	if nodes != len(e.touch) {
		return fmt.Errorf("pdl: touch lists reach %d of %d arena nodes", nodes, len(e.touch))
	}
	// No two chains share backing memory, nor a chain and a spare window
	// (named as page -1): each record slot has one owner.
	owner := make(map[*deltaRef]int64)
	claim := func(lpn int64, w []deltaRef) error {
		w = w[:cap(w)]
		for i := range w {
			if prev, ok := owner[&w[i]]; ok {
				return fmt.Errorf("pdl: chains of pages %d and %d share backing memory", prev, lpn)
			}
			owner[&w[i]] = lpn
		}
		return nil
	}
	for _, w := range e.spare {
		if err := claim(-1, w); err != nil {
			return err
		}
	}
	for i := range e.pages {
		lpn, pm := int64(i), &e.pages[i]
		if pm.basePpn == -1 {
			if pm.chain != nil {
				return fmt.Errorf("pdl: unmapped page %d holds a %d-record chain window", lpn, len(pm.chain))
			}
			continue
		}
		b := e.blockOf(pm.basePpn)
		if e.blocks[b].kind != blockBase {
			return fmt.Errorf("pdl: page %d base unit %d in non-base block %d", lpn, pm.basePpn, b)
		}
		if e.rev[pm.basePpn] != lpn {
			return fmt.Errorf("pdl: page %d base unit %d reverse-maps to %d", lpn, pm.basePpn, e.rev[pm.basePpn])
		}
		tallies[b].bases++
		if err := claim(lpn, pm.chain); err != nil {
			return err
		}
		prev := pm.baseSeq
		for i := range pm.chain {
			d := &pm.chain[i]
			if d.seq <= prev {
				return fmt.Errorf("pdl: page %d chain sequence %d not after %d", lpn, d.seq, prev)
			}
			prev = d.seq
			db := e.blockOfAddr(d.addr)
			if e.blocks[db].kind != blockDelta {
				return fmt.Errorf("pdl: page %d delta at %d in non-delta block %d", lpn, d.addr, db)
			}
			if d.off < 0 || int(d.off+d.n) > e.cfg.PageBytes {
				return fmt.Errorf("pdl: page %d delta range [%d,%d) outside the page", lpn, d.off, d.off+d.n)
			}
			if _, ok := listed[blockPage{db, uint32(lpn)}]; !ok {
				return fmt.Errorf("pdl: page %d delta at %d missing from block %d's touch list", lpn, d.addr, db)
			}
			tallies[db].deltas++
			tallies[db].deltaBytes += d.rec()
		}
	}
	for b := 0; b < e.numBlocks; b++ {
		info := &e.blocks[b]
		if !e.pool.InUse(b) {
			continue
		}
		t := tallies[b]
		if info.liveBases != t.bases || info.liveDeltas != t.deltas || info.liveDeltaBytes != t.deltaBytes {
			return fmt.Errorf("pdl: block %d live counts bases=%d/%d deltas=%d/%d bytes=%d/%d",
				b, info.liveBases, t.bases, info.liveDeltas, t.deltas, info.liveDeltaBytes, t.deltaBytes)
		}
	}
	return e.pool.CheckInvariants()
}
