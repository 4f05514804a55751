// Package storman implements the paper's physical storage manager (§3.3):
// the layer that owns the free DRAM pages and free flash sectors and
// migrates data between the two so that "data that is frequently written
// [stays] in DRAM, and data that is mostly read in flash".
//
// The manager stores blocks for higher layers (the file system) keyed by
// (object, block). Its policy is exactly the paper's:
//
//   - writes land in battery-backed DRAM pages and stay there while hot;
//     overwrites are absorbed in place;
//   - a write-back daemon migrates blocks to flash once they have been
//     dirty for the write-back delay (they have proven they will live);
//     eviction under DRAM pressure flushes the least recently written;
//   - reads are served wherever the block lives — flash blocks are read
//     in place, never copied into DRAM just to be read;
//   - writing a block that lives in flash triggers the paper's
//     copy-on-write: the block is copied to a DRAM page, the stale flash
//     copy is trimmed, and subsequent writes are absorbed in DRAM;
//   - deleting an object drops its DRAM blocks (bytes that never reach
//     flash) and trims its flash pages so cleaning can reclaim them.
//
// Block data physically lives in the simulated DRAM device and in the
// flash device behind the translation layer, so every access is charged
// realistic latency and energy.
package storman

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"ssmobile/internal/dram"
	"ssmobile/internal/engine"
	"ssmobile/internal/obs"
	"ssmobile/internal/sim"
)

// Sentinel errors.
var (
	// ErrNoDRAM reports that the DRAM buffer region is exhausted and
	// nothing can be evicted.
	ErrNoDRAM = errors.New("storman: out of DRAM pages")
	// ErrNoFlash reports that the flash logical space is exhausted.
	ErrNoFlash = errors.New("storman: out of flash pages")
	// ErrBadSize reports a block larger than the configured block size.
	ErrBadSize = errors.New("storman: block too large")
)

// Key names one stored block.
type Key struct {
	Object uint64
	Block  int64
}

// Config parameterises the manager.
type Config struct {
	// BlockBytes is the block (and DRAM page) size; it must equal the
	// translation layer's page size.
	BlockBytes int
	// DRAMBase and DRAMBytes delimit the region of the DRAM device the
	// manager may use for buffering.
	DRAMBase  int64
	DRAMBytes int64
	// WriteBackDelay is the dirty age at which the daemon migrates a block
	// to flash; zero disables age-based migration.
	WriteBackDelay sim.Duration
	// Obs receives the manager's metrics and op spans; nil falls back to
	// obs.Default().
	Obs *obs.Observer
}

// Stats aggregates the manager's accounting.
type Stats struct {
	HostBytesWritten       int64
	HostBytesRead          int64
	FlushedBytes           int64 // migrated DRAM → flash
	OverwriteAbsorbedBytes int64
	DeleteAbsorbedBytes    int64
	CopyOnWrites           int64 // flash → DRAM migrations
	Evictions              int64
	DaemonFlushes          int64
	FlashReads             int64 // blocks read in place from flash
	DRAMReads              int64 // blocks read from DRAM
	DRAMPagesInUse         int
	DRAMPagesTotal         int
}

// Reduction reports the flash write-traffic reduction 1 − flushed/host.
func (s Stats) Reduction() float64 {
	if s.HostBytesWritten == 0 {
		return 0
	}
	return 1 - float64(s.FlushedBytes)/float64(s.HostBytesWritten)
}

// blockLoc records where a block currently lives. A block dirty in DRAM
// may still have a flash copy at lpn holding its last flushed version
// (flashSize bytes); that stale copy is what survives a power failure.
type blockLoc struct {
	key        Key
	size       int   // logical bytes in the block (current version)
	flashSize  int   // logical bytes in the last flushed flash version
	dramPage   int   // -1 if not in DRAM
	lpn        int64 // -1 if not in flash
	dirtySince sim.Time
	lastWrite  sim.Time
	// links thread the loc onto the dirty lists (writeOrder, dirtyOrder)
	// intrusively, so queueing a dirty block never allocates.
	links [2]locLinks
}

func (l *blockLoc) inDRAM() bool { return l.dramPage >= 0 }

// Link-pair indexes into blockLoc.links.
const (
	lruLink  = iota // writeOrder: LRW order of dirty DRAM blocks
	fifoLink        // dirtyOrder: dirty-age order
)

type locLinks struct {
	prev, next *blockLoc
	queued     bool
}

// locList is an intrusive doubly-linked list of blockLocs threading the
// link pair selected by idx. It replaces container/list on the dirty
// lists: membership is a flag on the loc, and push/remove touch only
// existing nodes.
type locList struct {
	head, tail *blockLoc
	idx        int
	n          int
}

func (l *locList) Front() *blockLoc { return l.head }

func (l *locList) Next(loc *blockLoc) *blockLoc { return loc.links[l.idx].next }

func (l *locList) Len() int { return l.n }

func (l *locList) Queued(loc *blockLoc) bool { return loc.links[l.idx].queued }

func (l *locList) PushBack(loc *blockLoc) {
	lk := &loc.links[l.idx]
	lk.prev, lk.next, lk.queued = l.tail, nil, true
	if l.tail != nil {
		l.tail.links[l.idx].next = loc
	} else {
		l.head = loc
	}
	l.tail = loc
	l.n++
}

func (l *locList) Remove(loc *blockLoc) {
	lk := &loc.links[l.idx]
	if !lk.queued {
		return
	}
	if lk.prev != nil {
		lk.prev.links[l.idx].next = lk.next
	} else {
		l.head = lk.next
	}
	if lk.next != nil {
		lk.next.links[l.idx].prev = lk.prev
	} else {
		l.tail = lk.prev
	}
	lk.prev, lk.next, lk.queued = nil, nil, false
	l.n--
}

func (l *locList) MoveToBack(loc *blockLoc) {
	if l.tail == loc {
		return
	}
	l.Remove(loc)
	l.PushBack(loc)
}

// Init empties the list, clearing every member's links.
func (l *locList) Init() {
	for loc := l.head; loc != nil; {
		next := loc.links[l.idx].next
		loc.links[l.idx] = locLinks{}
		loc = next
	}
	l.head, l.tail, l.n = nil, nil, 0
}

// Manager is the physical storage manager. Not safe for concurrent use.
type Manager struct {
	cfg   Config
	clock *sim.Clock
	dram  *dram.Device
	fl    engine.Engine

	table    map[Key]*blockLoc
	byObject map[uint64]map[int64]*blockLoc

	freeDRAM   []int // free page indexes within the region
	totalPages int

	freeLPN []int64

	writeOrder locList // LRW order of dirty DRAM blocks
	dirtyOrder locList // dirty-age order

	// Reusable hot-path scratch. The manager is single-threaded; each
	// buffer serves one non-nesting code path (migrate can run inside the
	// copy-on-write path via eviction, so cowBuf and migBuf are distinct).
	migBuf  []byte
	cowBuf  []byte
	readBuf []byte
	// locFree recycles blockLocs and freeMaps recycles emptied per-object
	// maps, so the churn of create/delete cycles settles into reuse.
	locFree    []*blockLoc
	freeMaps   []map[int64]*blockLoc
	orderBlock []*blockLoc // blocksInOrder scratch
	// maxObjBlocks is the largest per-object block count seen; fresh
	// per-object maps are pre-sized with it (see insert).
	maxObjBlocks int

	// Batched-submission accounting: inside a beginBatch/endBatch window
	// (sync, object sync, daemon pass) the per-block flush counters
	// accumulate here and fold into the shared counters once.
	batching     bool
	batchFlushed int64
	batchDaemon  int64

	obs                     *obs.Observer
	hostWritten, hostRead   *obs.Counter
	flushed                 *obs.Counter
	overwriteAbsorbed       *obs.Counter
	deleteAbsorbed          *obs.Counter
	cows, evictions, daemon *obs.Counter
	flashReads, dramReads   *obs.Counter
}

// New builds a manager over the DRAM device region and the translation
// layer. The FTL's page size must equal cfg.BlockBytes.
func New(cfg Config, clock *sim.Clock, dramDev *dram.Device, fl engine.Engine) (*Manager, error) {
	if cfg.BlockBytes <= 0 {
		return nil, fmt.Errorf("storman: non-positive block size")
	}
	if fl.PageBytes() != cfg.BlockBytes {
		return nil, fmt.Errorf("storman: block size %d != engine page size %d", cfg.BlockBytes, fl.PageBytes())
	}
	if cfg.DRAMBase < 0 || cfg.DRAMBytes < 0 || cfg.DRAMBase+cfg.DRAMBytes > dramDev.Capacity() {
		return nil, fmt.Errorf("storman: DRAM region [%d,%d) outside device of %d",
			cfg.DRAMBase, cfg.DRAMBase+cfg.DRAMBytes, dramDev.Capacity())
	}
	o := obs.Or(cfg.Obs)
	lbl := obs.Labels{"layer": "storman"}
	m := &Manager{
		cfg:   cfg,
		clock: clock,
		dram:  dramDev,
		fl:    fl,
		// Every placed block is DRAM-resident (at most totalPages) or
		// flash-resident (at most the device's logical pages), so the
		// table's final size is known now; pre-sizing trades one upfront
		// allocation for all the incremental rehash growth.
		table:             make(map[Key]*blockLoc, int(cfg.DRAMBytes/int64(cfg.BlockBytes))+int(fl.LogicalPages())),
		byObject:          make(map[uint64]map[int64]*blockLoc),
		totalPages:        int(cfg.DRAMBytes / int64(cfg.BlockBytes)),
		writeOrder:        locList{idx: lruLink},
		dirtyOrder:        locList{idx: fifoLink},
		obs:               o,
		hostWritten:       o.Counter("host_bytes_total", obs.Labels{"layer": "storman", "op": "write"}),
		hostRead:          o.Counter("host_bytes_total", obs.Labels{"layer": "storman", "op": "read"}),
		flushed:           o.Counter("flushed_bytes_total", lbl),
		overwriteAbsorbed: o.Counter("absorbed_bytes_total", obs.Labels{"layer": "storman", "reason": "overwrite"}),
		deleteAbsorbed:    o.Counter("absorbed_bytes_total", obs.Labels{"layer": "storman", "reason": "delete"}),
		cows:              o.Counter("copy_on_writes_total", lbl),
		evictions:         o.Counter("evictions_total", lbl),
		daemon:            o.Counter("daemon_flushes_total", lbl),
		flashReads:        o.Counter("reads_total", obs.Labels{"layer": "storman", "medium": "flash"}),
		dramReads:         o.Counter("reads_total", obs.Labels{"layer": "storman", "medium": "dram"}),
	}
	o.GaugeFunc("dram_pages_in_use", lbl, func() float64 { return float64(m.totalPages - len(m.freeDRAM)) })
	o.GaugeFunc("buffer_occupancy", lbl, m.BufferOccupancy)
	for p := m.totalPages - 1; p >= 0; p-- {
		m.freeDRAM = append(m.freeDRAM, p)
	}
	for lpn := fl.LogicalPages() - 1; lpn >= 0; lpn-- {
		m.freeLPN = append(m.freeLPN, lpn)
	}
	return m, nil
}

// Config returns the manager configuration.
func (m *Manager) Config() Config { return m.cfg }

// BlockBytes reports the block size.
func (m *Manager) BlockBytes() int { return m.cfg.BlockBytes }

// FlashPagesFree reports the unallocated flash logical pages.
func (m *Manager) FlashPagesFree() int { return len(m.freeLPN) }

// DRAMPagesFree reports the free DRAM buffer pages.
func (m *Manager) DRAMPagesFree() int { return len(m.freeDRAM) }

// BufferOccupancy reports the in-use fraction of the DRAM buffer in
// [0, 1]. The serving layer's watermark admission control keys off this
// value: a full buffer means every further write pays flash latency.
func (m *Manager) BufferOccupancy() float64 {
	if m.totalPages <= 0 {
		return 0
	}
	return float64(m.totalPages-len(m.freeDRAM)) / float64(m.totalPages)
}

func (m *Manager) pageAddr(page int) int64 {
	return m.cfg.DRAMBase + int64(page)*int64(m.cfg.BlockBytes)
}

func (m *Manager) lookup(key Key) *blockLoc { return m.table[key] }

func (m *Manager) insert(loc *blockLoc) {
	m.table[loc.key] = loc
	blocks := m.byObject[loc.key.Object]
	if blocks == nil {
		if n := len(m.freeMaps); n > 0 {
			blocks = m.freeMaps[n-1]
			m.freeMaps = m.freeMaps[:n-1]
		} else {
			// Size fresh maps to the largest per-object block count seen,
			// so same-shaped objects skip the incremental rehash growth
			// (recycled maps keep their capacity already).
			blocks = make(map[int64]*blockLoc, m.maxObjBlocks)
		}
		m.byObject[loc.key.Object] = blocks
	}
	blocks[loc.key.Block] = loc
	if len(blocks) > m.maxObjBlocks {
		m.maxObjBlocks = len(blocks)
	}
}

func (m *Manager) remove(loc *blockLoc) {
	delete(m.table, loc.key)
	if blocks := m.byObject[loc.key.Object]; blocks != nil {
		delete(blocks, loc.key.Block)
		if len(blocks) == 0 {
			delete(m.byObject, loc.key.Object)
			m.freeMaps = append(m.freeMaps, blocks)
		}
	}
	// The loc is fully reset before it goes back on the free list: a
	// recycled loc must not leak a stale key, flash page or list link.
	*loc = blockLoc{}
	m.locFree = append(m.locFree, loc)
}

// newLoc returns a zeroed blockLoc, reusing a recycled one when
// possible. Fresh locs come from slabs: most locs live as long as their
// block (deletes are rare), so slab allocation amortises the per-block
// cost that dominates a growing table.
func (m *Manager) newLoc() *blockLoc {
	if n := len(m.locFree); n > 0 {
		loc := m.locFree[n-1]
		m.locFree = m.locFree[:n-1]
		return loc
	}
	slab := make([]blockLoc, 64)
	for i := len(slab) - 1; i > 0; i-- {
		m.locFree = append(m.locFree, &slab[i])
	}
	return &slab[0]
}

// enqueueDirty puts the block on the dirty lists.
func (m *Manager) enqueueDirty(loc *blockLoc) {
	now := m.clock.Now()
	loc.dirtySince = now
	loc.lastWrite = now
	m.writeOrder.PushBack(loc)
	m.dirtyOrder.PushBack(loc)
}

// dequeueDirty removes the block from the dirty lists.
func (m *Manager) dequeueDirty(loc *blockLoc) {
	m.writeOrder.Remove(loc)
	m.dirtyOrder.Remove(loc)
}

// allocDRAMPage returns a free page, evicting the least recently written
// dirty block if necessary.
func (m *Manager) allocDRAMPage() (int, error) {
	if n := len(m.freeDRAM); n > 0 {
		p := m.freeDRAM[n-1]
		m.freeDRAM = m.freeDRAM[:n-1]
		return p, nil
	}
	loc := m.writeOrder.Front()
	if loc == nil {
		return 0, ErrNoDRAM
	}
	m.evictions.Inc()
	if err := m.migrateToFlash(loc); err != nil {
		return 0, err
	}
	return m.allocDRAMPage()
}

// migrateToFlash flushes a dirty DRAM block to flash and frees its page.
// span opens an op span against the manager's clock and the DRAM device's
// energy meter (shared with flash in assembled systems).
func (m *Manager) span(op string) obs.SpanRef {
	return m.obs.Span(m.clock, m.dram.Meter(), "storman", op)
}

func (m *Manager) migrateToFlash(loc *blockLoc) (err error) {
	// Migration is the write-buffer eviction stall (obs.StageFlush):
	// the residue after the nested device spans claim their own stages.
	sp := m.obs.StageSpan(m.clock, m.dram.Meter(), "storman", "migrate", obs.StageFlush)
	defer func() { sp.End(int64(loc.size), err) }()
	if cap(m.migBuf) < m.cfg.BlockBytes {
		m.migBuf = make([]byte, m.cfg.BlockBytes)
	}
	buf := m.migBuf[:m.cfg.BlockBytes]
	if _, err := m.dram.Read(m.pageAddr(loc.dramPage), buf[:loc.size]); err != nil {
		return err
	}
	// Blocks are flushed at full page granularity; the tail past the
	// logical size is padding.
	for i := loc.size; i < len(buf); i++ {
		buf[i] = 0
	}
	lpn := loc.lpn
	if lpn < 0 {
		n := len(m.freeLPN)
		if n == 0 {
			return ErrNoFlash
		}
		lpn = m.freeLPN[n-1]
		m.freeLPN = m.freeLPN[:n-1]
	}
	if err := m.fl.WritePageTagged(lpn, buf, encodeTag(loc.key)); err != nil {
		return err
	}
	if m.batching {
		m.batchFlushed += int64(loc.size)
	} else {
		m.flushed.Add(int64(loc.size))
	}
	m.freeDRAM = append(m.freeDRAM, loc.dramPage)
	loc.dramPage = -1
	loc.lpn = lpn
	loc.flashSize = loc.size
	m.dequeueDirty(loc)
	return nil
}

// WriteBlock stores data (at most one block) for key.
func (m *Manager) WriteBlock(key Key, data []byte) (err error) {
	if len(data) > m.cfg.BlockBytes {
		return fmt.Errorf("%w: %d > %d", ErrBadSize, len(data), m.cfg.BlockBytes)
	}
	sp := m.span("write")
	defer func() { sp.End(int64(len(data)), err) }()
	m.hostWritten.Add(int64(len(data)))
	loc := m.lookup(key)

	switch {
	case loc != nil && loc.inDRAM():
		// Overwrite absorbed in place.
		m.overwriteAbsorbed.Add(int64(len(data)))
		if _, err := m.dram.Write(m.pageAddr(loc.dramPage), data); err != nil {
			return err
		}
		if len(data) > loc.size {
			loc.size = len(data)
		}
		loc.lastWrite = m.clock.Now()
		if m.writeOrder.Queued(loc) {
			m.writeOrder.MoveToBack(loc)
		} else {
			// Was clean in DRAM (just copied on write); mark dirty.
			m.enqueueDirty(loc)
		}
		return nil

	case loc != nil:
		// Copy-on-write from flash: bring the block to DRAM and apply the
		// write there. The stale flash copy is kept until the new version
		// is flushed over it — after a power failure it is the version
		// that survives.
		m.cows.Inc()
		if cap(m.cowBuf) < m.cfg.BlockBytes {
			m.cowBuf = make([]byte, m.cfg.BlockBytes)
		}
		old := m.cowBuf[:m.cfg.BlockBytes]
		if err := m.fl.ReadPage(loc.lpn, old); err != nil {
			return err
		}
		page, err := m.allocDRAMPage()
		if err != nil {
			return err
		}
		copy(old, data)
		size := loc.size
		if len(data) > size {
			size = len(data)
		}
		if _, err := m.dram.Write(m.pageAddr(page), old[:size]); err != nil {
			return err
		}
		loc.dramPage = page
		loc.size = size
		m.enqueueDirty(loc)
		return nil

	default:
		page, err := m.allocDRAMPage()
		if err != nil {
			return err
		}
		if _, err := m.dram.Write(m.pageAddr(page), data); err != nil {
			return err
		}
		loc = m.newLoc()
		loc.key, loc.size, loc.dramPage, loc.lpn = key, len(data), page, -1
		m.insert(loc)
		m.enqueueDirty(loc)
		return nil
	}
}

// ReadBlock fetches the block into buf and reports how many bytes it
// holds. Unknown blocks read as zero length. Flash-resident blocks are
// read in place; they are not promoted to DRAM.
func (m *Manager) ReadBlock(key Key, buf []byte) (read int, err error) {
	loc := m.lookup(key)
	if loc == nil {
		return 0, nil
	}
	sp := m.span("read")
	defer func() { sp.End(int64(read), err) }()
	n := loc.size
	if n > len(buf) {
		n = len(buf)
	}
	if loc.inDRAM() {
		m.dramReads.Inc()
		if _, err := m.dram.Read(m.pageAddr(loc.dramPage), buf[:n]); err != nil {
			return 0, err
		}
	} else {
		m.flashReads.Inc()
		if cap(m.readBuf) < m.cfg.BlockBytes {
			m.readBuf = make([]byte, m.cfg.BlockBytes)
		}
		page := m.readBuf[:m.cfg.BlockBytes]
		if err := m.fl.ReadPage(loc.lpn, page); err != nil {
			return 0, err
		}
		copy(buf[:n], page)
	}
	m.hostRead.Add(int64(n))
	return n, nil
}

// BlockSize reports the stored size of a block, or 0 if absent.
func (m *Manager) BlockSize(key Key) int {
	if loc := m.lookup(key); loc != nil {
		return loc.size
	}
	return 0
}

// InDRAM reports whether the block currently lives in DRAM.
func (m *Manager) InDRAM(key Key) bool {
	loc := m.lookup(key)
	return loc != nil && loc.inDRAM()
}

// DeleteObject drops every block of the object. DRAM-resident bytes are
// absorbed (they never reach flash); flash pages are trimmed.
func (m *Manager) DeleteObject(object uint64) error {
	return m.DeleteBlocksFrom(object, math.MinInt64)
}

// DeleteBlocksFrom drops the object's blocks at index first and above
// (truncation), in index order. The cost is the blocks the object holds,
// whatever length the file system believes it has.
func (m *Manager) DeleteBlocksFrom(object uint64, first int64) error {
	return m.deleteBlocks(object, first, math.MaxInt64)
}

// DeleteBlocksBefore drops the object's blocks below index end, in index
// order: the file system retires superseded checkpoint generations with
// it, whose blocks all sit below the newest one's.
func (m *Manager) DeleteBlocksBefore(object uint64, end int64) error {
	if end == math.MinInt64 {
		return nil
	}
	return m.deleteBlocks(object, math.MinInt64, end-1)
}

// deleteBlocks drops the object's blocks with index in [first, last].
func (m *Manager) deleteBlocks(object uint64, first, last int64) error {
	for _, loc := range m.blocksInOrder(object) {
		if loc.key.Block < first || loc.key.Block > last {
			continue
		}
		if err := m.dropBlock(loc); err != nil {
			return err
		}
	}
	return nil
}

// Blocks lists the indexes of the blocks the object holds, ascending. It
// reads the placement table only — no device is touched — so a mount can
// ask what survived before paying to read any of it.
func (m *Manager) Blocks(object uint64) []int64 {
	locs := m.blocksInOrder(object)
	out := make([]int64, len(locs))
	for i, loc := range locs {
		out[i] = loc.key.Block
	}
	return out
}

// blocksInOrder returns an object's blocks sorted by block index. Bulk
// operations (delete, fsync) must touch storage in a fixed order — Go's
// randomized map iteration would otherwise reorder frees and migrations
// between runs, making op traces and flash layout differ run to run.
// The returned slice is the manager's scratch, valid until the next call
// (slices.SortFunc with a static comparison allocates nothing; sort.Slice
// would allocate its closure per call).
func (m *Manager) blocksInOrder(object uint64) []*blockLoc {
	blocks := m.byObject[object]
	out := m.orderBlock[:0]
	for _, loc := range blocks {
		out = append(out, loc)
	}
	slices.SortFunc(out, func(a, b *blockLoc) int { return cmp.Compare(a.key.Block, b.key.Block) })
	m.orderBlock = out
	return out
}

// TruncateBlock shrinks a block's stored size to at most size bytes
// (file truncation landing mid-block). Shrinking to zero drops the block.
//
// The shrink is pure bookkeeping: nothing is written to flash, so
// flashSize — the size of the version flash actually holds — must NOT be
// clamped. A truncation of a flash-resident block is therefore not
// durable by itself: a power failure before the next flush reverts the
// block to its persisted length, and the file system's inode sizes (in
// its own synced metadata) are what clamp reads after recovery.
func (m *Manager) TruncateBlock(key Key, size int) error {
	loc := m.lookup(key)
	if loc == nil || size >= loc.size {
		return nil
	}
	if size <= 0 {
		return m.dropBlock(loc)
	}
	loc.size = size
	return nil
}

// Objects lists every object currently holding at least one block; the
// file system uses it to reap orphans after a power-failure recovery.
// Sorted, so recovery walks objects in the same order every run.
func (m *Manager) Objects() []uint64 {
	out := make([]uint64, 0, len(m.byObject))
	for obj := range m.byObject {
		out = append(out, obj)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DeleteBlock drops a single block.
func (m *Manager) DeleteBlock(key Key) error {
	if loc := m.lookup(key); loc != nil {
		return m.dropBlock(loc)
	}
	return nil
}

func (m *Manager) dropBlock(loc *blockLoc) error {
	if loc.inDRAM() {
		m.deleteAbsorbed.Add(int64(loc.size))
		m.freeDRAM = append(m.freeDRAM, loc.dramPage)
		m.dequeueDirty(loc)
	}
	if loc.lpn >= 0 {
		if err := m.fl.TrimPage(loc.lpn); err != nil {
			return err
		}
		m.freeLPN = append(m.freeLPN, loc.lpn)
	}
	m.remove(loc)
	return nil
}

// Tick runs the write-back daemon — blocks dirty longer than the delay
// are migrated to flash — and then offers the translation layer the
// idle gap that ends at until for cleaning. The caller states the gap:
// the serving layer passes the next request's arrival, a caller with
// nobody waiting passes sim.Forever and the cleaner runs to its target.
// No clean starts at or after until, so the gap overruns by at most the
// one clean in flight.
func (m *Manager) Tick(until sim.Time) error {
	if err := m.TickDaemon(); err != nil {
		return err
	}
	return m.fl.CleanIdle(until)
}

// TickDaemon runs only the write-back daemon, without offering the
// translation layer an idle-cleaning opportunity. The serving layer uses
// it when requests are backlogged: aged blocks must still migrate, but
// the cleaner gets no free ride when there is no idle time (a gap of
// zero length would start no clean anyway) — that is when its lag
// becomes visible and admission control engages.
func (m *Manager) TickDaemon() error {
	if m.cfg.WriteBackDelay > 0 {
		now := m.clock.Now()
		defer m.endBatch(m.beginBatch())
		for {
			loc := m.dirtyOrder.Front()
			if loc == nil {
				break
			}
			if now.Sub(loc.dirtySince) < m.cfg.WriteBackDelay {
				break
			}
			m.batchDaemon++
			if err := m.migrateToFlash(loc); err != nil {
				return err
			}
		}
	}
	return nil
}

// NextWriteBack reports when the daemon next has work: the time the
// oldest dirty block reaches the write-back delay, or sim.Forever when
// nothing is dirty or the daemon is off.
func (m *Manager) NextWriteBack() sim.Time {
	loc := m.dirtyOrder.Front()
	if loc == nil || m.cfg.WriteBackDelay <= 0 {
		return sim.Forever
	}
	return loc.dirtySince.Add(m.cfg.WriteBackDelay)
}

// beginBatch opens a batched-submission window: per-block flush and
// daemon counts accumulate locally and fold into the shared counters in
// one add each at endBatch. Per-block spans are untouched — the batch
// seam amortises only metric bookkeeping, never the causal record — and
// nothing reads the counters mid-window in the single-threaded
// simulation, so the folded totals are indistinguishable from per-block
// adds. Nested windows fold at the outermost close.
func (m *Manager) beginBatch() bool {
	if m.batching {
		return false
	}
	m.batching = true
	return true
}

func (m *Manager) endBatch(outermost bool) {
	if !outermost {
		return
	}
	m.batching = false
	if m.batchFlushed != 0 {
		m.flushed.Add(m.batchFlushed)
		m.batchFlushed = 0
	}
	if m.batchDaemon != 0 {
		m.daemon.Add(m.batchDaemon)
		m.batchDaemon = 0
	}
}

// SyncObject migrates the object's dirty blocks to flash — an fsync of
// one file, used by the file system to checkpoint its metadata object.
func (m *Manager) SyncObject(object uint64) error {
	defer m.endBatch(m.beginBatch())
	for _, loc := range m.blocksInOrder(object) {
		if loc.inDRAM() {
			if err := m.migrateToFlash(loc); err != nil {
				return err
			}
		}
	}
	return nil
}

// PowerFailRecover reconciles the manager's state after the DRAM device
// lost power: every DRAM-resident block reverts to its last flushed flash
// version, blocks that never reached flash disappear, and unflushed
// truncations of flash-resident blocks revert to the persisted length.
// It returns the number of bytes of data lost. The caller is responsible
// for restoring the DRAM device itself (dram.Device.Restore).
func (m *Manager) PowerFailRecover() (lostBytes int64) {
	locs := make([]*blockLoc, 0, len(m.table))
	for _, loc := range m.table {
		locs = append(locs, loc)
	}
	// Fixed (object, block) order: the survivors' free-page lists end up
	// the same every run, whatever order the map yields.
	sort.Slice(locs, func(i, j int) bool {
		if locs[i].key.Object != locs[j].key.Object {
			return locs[i].key.Object < locs[j].key.Object
		}
		return locs[i].key.Block < locs[j].key.Block
	})
	var gone []*blockLoc
	for _, loc := range locs {
		if !loc.inDRAM() {
			// Flash-resident: the persisted version is all that survives.
			// An unflushed truncation (size < flashSize) reverts.
			loc.size = loc.flashSize
			continue
		}
		// The dirty version in DRAM is gone either way.
		lostBytes += int64(loc.size)
		if loc.lpn >= 0 {
			// Revert to the flushed version.
			loc.size = loc.flashSize
			loc.dramPage = -1
		} else {
			gone = append(gone, loc)
		}
	}
	// Empty the dirty lists before recycling the gone locs: remove resets
	// the loc wholesale, which would break the lists' link threading.
	m.writeOrder.Init()
	m.dirtyOrder.Init()
	for _, loc := range gone {
		m.remove(loc)
	}
	// Rebuild the DRAM free pool from scratch.
	m.freeDRAM = m.freeDRAM[:0]
	for p := m.totalPages - 1; p >= 0; p-- {
		m.freeDRAM = append(m.freeDRAM, p)
	}
	return lostBytes
}

// Sync migrates every dirty block to flash (shutdown, or an explicit
// application fsync). These migrations are forced out early by the sync
// rather than aged out by the write-back daemon, so their flash traffic
// is charged to the group-commit-flush cause; daemon and eviction
// migrations keep the ambient cause (host-write by default).
func (m *Manager) Sync() error {
	defer m.obs.PushCause(obs.CauseGroupCommitFlush)()
	defer m.endBatch(m.beginBatch())
	for {
		loc := m.dirtyOrder.Front()
		if loc == nil {
			return nil
		}
		if err := m.migrateToFlash(loc); err != nil {
			return err
		}
	}
}

// Stats summarises the manager's counters.
func (m *Manager) Stats() Stats {
	return Stats{
		HostBytesWritten:       m.hostWritten.Value(),
		HostBytesRead:          m.hostRead.Value(),
		FlushedBytes:           m.flushed.Value(),
		OverwriteAbsorbedBytes: m.overwriteAbsorbed.Value(),
		DeleteAbsorbedBytes:    m.deleteAbsorbed.Value(),
		CopyOnWrites:           m.cows.Value(),
		Evictions:              m.evictions.Value(),
		DaemonFlushes:          m.daemon.Value(),
		FlashReads:             m.flashReads.Value(),
		DRAMReads:              m.dramReads.Value(),
		DRAMPagesInUse:         m.totalPages - len(m.freeDRAM),
		DRAMPagesTotal:         m.totalPages,
	}
}
