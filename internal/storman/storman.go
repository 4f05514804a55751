// Package storman implements the paper's physical storage manager (§3.3):
// the layer that owns the free DRAM pages and free flash sectors and
// migrates data between the two so that "data that is frequently written
// [stays] in DRAM, and data that is mostly read in flash".
//
// The manager stores blocks for higher layers (the file system) keyed by
// (object, block), placed through one index (one table per object, its
// blocks in ascending index), written through one entry point
// (WriteBlockAt) and read through one (ReadAt). Every bulk path (sync,
// truncate, delete, read, recovery) walks a table in place, so storage is
// touched in block order without sorting anything.
// Its policy is exactly the paper's:
//
//   - writes land in battery-backed DRAM pages and stay there while hot;
//     overwrites are absorbed in place;
//   - a write-back daemon migrates blocks to flash once they have been
//     dirty for the write-back delay (they have proven they will live);
//     eviction under DRAM pressure flushes the least recently written;
//   - reads are served wherever the block lives — flash blocks are read
//     in place, never copied into DRAM just to be read. One call reads an
//     extent (ReadAt), every block it covers whole lands straight in the
//     caller's buffer, and each run of whole flash blocks reaches the
//     engine in one call;
//   - writing a block that lives in flash triggers the paper's
//     copy-on-write: the block moves to a DRAM page, the flash copy read
//     only when the write does not cover it, and subsequent writes are
//     absorbed in DRAM (the stale flash copy stays mapped until the new
//     version is flushed over it);
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
	// Obs receives the manager's metrics and op spans; nil means standalone
	// collectors, nothing exported.
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

	// byObject is the placement index: one table per object holding at
	// least one block.
	byObject map[uint64]*objTable

	freeDRAM   []int // free page indexes within the region
	totalPages int

	freeLPN []int64

	writeOrder locList // LRW order of dirty DRAM blocks
	dirtyOrder locList // dirty-age order

	// Reusable hot-path scratch. The manager is single-threaded; each
	// buffer serves one non-nesting code path (migrate can run inside the
	// write path via eviction, so writeBuf and migBuf are distinct).
	// readBuf holds a flash block a read covers only in part, readLPNs the
	// pages of one run of whole flash blocks handed to the engine.
	migBuf   []byte
	writeBuf []byte
	readBuf  []byte
	readLPNs []int64
	// locFree recycles blockLocs and tableFree emptied tables, so the
	// churn of create/delete cycles settles into reuse.
	locFree   []*blockLoc
	tableFree []*objTable

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
	o := cfg.Obs
	lbl := obs.Labels{"layer": "storman"}
	m := &Manager{
		cfg:               cfg,
		clock:             clock,
		dram:              dramDev,
		fl:                fl,
		byObject:          make(map[uint64]*objTable),
		totalPages:        int(cfg.DRAMBytes / int64(cfg.BlockBytes)),
		writeBuf:          make([]byte, cfg.BlockBytes),
		readBuf:           make([]byte, cfg.BlockBytes),
		readLPNs:          make([]int64, 0, engine.ReadRunPages),
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

// BlockBytes reports the block size.
func (m *Manager) BlockBytes() int { return m.cfg.BlockBytes }

// DiffsOverwrites reports whether the engine programs only what changed
// when a mapped page is rewritten (engine.Engine.DiffsOverwrites).
func (m *Manager) DiffsOverwrites() bool { return m.fl.DiffsOverwrites() }

// FlashPagesFree reports the unallocated flash logical pages.
func (m *Manager) FlashPagesFree() int { return len(m.freeLPN) }

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

// objTable holds one object's blocks in ascending block index.
type objTable struct {
	locs []*blockLoc
}

// find returns the object's table (nil when the object holds no block),
// the position of the first of its blocks at or above key.Block, and the
// block itself when the table holds it (nil otherwise).
func (m *Manager) find(key Key) (t *objTable, i int, loc *blockLoc) {
	if t = m.byObject[key.Object]; t != nil {
		var ok bool
		i, ok = slices.BinarySearchFunc(t.locs, key.Block, func(l *blockLoc, b int64) int { return cmp.Compare(l.key.Block, b) })
		if ok {
			loc = t.locs[i]
		}
	}
	return t, i, loc
}

// insert adds a block its object does not hold yet.
func (m *Manager) insert(loc *blockLoc) {
	_, i, _ := m.find(loc.key)
	t := m.table(loc.key.Object)
	t.locs = slices.Insert(t.locs, i, loc)
}

// table returns the object's table, taking an empty one if it has none.
func (m *Manager) table(object uint64) *objTable {
	t := m.byObject[object]
	if t == nil {
		if n := len(m.tableFree); n > 0 {
			t = m.tableFree[n-1]
			m.tableFree = m.tableFree[:n-1]
		} else {
			t = &objTable{}
		}
		m.byObject[object] = t
	}
	return t
}

// cut removes the table's blocks at positions [i, j), whose locs the
// caller has recycled, and recycles the table once it is empty.
func (m *Manager) cut(object uint64, t *objTable, i, j int) {
	t.locs = slices.Delete(t.locs, i, j)
	if len(t.locs) == 0 {
		delete(m.byObject, object)
		m.tableFree = append(m.tableFree, t)
	}
}

// free recycles a loc its table no longer holds. The loc is fully reset
// first: a recycled loc must not leak a stale key, flash page or link.
func (m *Manager) free(loc *blockLoc) {
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
	loc.dirtySince = m.clock.Now()
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
	clear(buf[loc.size:])
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
	m.flushed.Add(int64(loc.size))
	m.freeDRAM = append(m.freeDRAM, loc.dramPage)
	loc.dramPage = -1
	loc.lpn = lpn
	loc.flashSize = loc.size
	m.dequeueDirty(loc)
	return nil
}

// WriteBlockAt stores data at byte off of key's block, growing (never
// shrinking) the block's stored size to off+len(data). Bytes between the
// old size and off read as zero; bytes outside the write keep their old
// value. It is the manager's only write path.
func (m *Manager) WriteBlockAt(key Key, off int, data []byte) (err error) {
	end := off + len(data)
	if off < 0 || end > m.cfg.BlockBytes {
		return fmt.Errorf("%w: [%d,%d) outside a %d-byte block", ErrBadSize, off, end, m.cfg.BlockBytes)
	}
	sp := m.span("write")
	defer func() { sp.End(int64(len(data)), err) }()
	m.hostWritten.Add(int64(len(data)))
	_, _, loc := m.find(key)

	switch {
	case loc != nil && loc.inDRAM():
		// Overwrite absorbed in place.
		m.overwriteAbsorbed.Add(int64(len(data)))
		if err := m.writeDRAM(loc.dramPage, min(loc.size, off), off, data); err != nil {
			return err
		}
		loc.size = max(loc.size, end)
		if m.writeOrder.Queued(loc) {
			m.writeOrder.MoveToBack(loc)
		} else {
			// Was clean in DRAM (just copied on write); mark dirty.
			m.enqueueDirty(loc)
		}
		return nil

	case loc != nil:
		// Copy-on-write from flash: bring the block to DRAM and apply the
		// write there. The flash copy is read only when the write leaves
		// some of its bytes standing. The stale flash copy is kept until
		// the new version is flushed over it — after a power failure it
		// is the version that survives.
		m.cows.Inc()
		buf := m.writeBuf
		if off > 0 || end < loc.size {
			if err := m.readPage(loc.lpn, buf); err != nil {
				return err
			}
			// Past the size, the page holds padding or a truncated tail.
			clear(buf[min(loc.size, off):off])
		}
		page, err := m.allocDRAMPage()
		if err != nil {
			return err
		}
		copy(buf[off:], data)
		size := max(loc.size, end)
		if _, err := m.dram.Write(m.pageAddr(page), buf[:size]); err != nil {
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
		if err := m.writeDRAM(page, 0, off, data); err != nil {
			return err
		}
		loc = m.newLoc()
		loc.key, loc.size, loc.dramPage, loc.lpn = key, end, page, -1
		m.insert(loc)
		m.enqueueDirty(loc)
		return nil
	}
}

// writeDRAM writes data at off into the DRAM page and zeroes [from, off)
// ahead of it: a reused page holds stale bytes there.
func (m *Manager) writeDRAM(page, from, off int, data []byte) error {
	if from < off {
		buf := m.writeBuf[from : off+len(data)]
		clear(buf[:off-from])
		copy(buf[off-from:], data)
		data, off = buf, from
	}
	_, err := m.dram.Write(m.pageAddr(page)+int64(off), data)
	return err
}

// ReadAt fills buf with the object's bytes from byte offset off. A block
// the manager does not hold, and the bytes past a block's stored size,
// read as zero. It is the manager's only read path: a block the extent
// covers whole is read in place, by the engine or from its DRAM page,
// straight into buf, and a DRAM page the extent covers in part is read
// through dram.Device.ReadWindow, which copies only the part asked for;
// only a flash block the extent covers in part goes through readBuf.
// Consecutive whole, full-size flash blocks go to the engine as one run,
// one call for up to engine.ReadRunPages blocks. Either way each stored
// block costs the one device read it always has (its stored bytes from
// DRAM, its whole page from flash), in block order. Flash-resident blocks
// are not promoted to DRAM.
func (m *Manager) ReadAt(object uint64, off int64, buf []byte) (err error) {
	if off < 0 || off > math.MaxInt64-int64(len(buf)) {
		return fmt.Errorf("%w: extent %d+%d outside an object", ErrBadSize, off, len(buf))
	}
	if len(buf) == 0 {
		return nil
	}
	var flashReads, dramReads, read int64
	sp := m.span("read")
	defer func() {
		m.flashReads.Add(flashReads)
		m.dramReads.Add(dramReads)
		m.hostRead.Add(read)
		sp.End(read, err)
	}()
	bs := m.cfg.BlockBytes
	// One search finds the extent's first block; the walk then takes the
	// table's next entry whenever it reaches that entry's index.
	var locs []*blockLoc
	if t, i, _ := m.find(Key{object, off / int64(bs)}); t != nil {
		locs = t.locs[i:]
	}
	for done := 0; done < len(buf); {
		at := off + int64(done)
		lo := int(at % int64(bs))
		dst := buf[done:min(len(buf), done+bs-lo)]
		var loc *blockLoc
		if len(locs) > 0 && locs[0].key.Block == at/int64(bs) {
			loc, locs = locs[0], locs[1:]
		}
		if len(dst) == bs && m.fullFlash(loc) {
			// The run of whole, full-size flash blocks starting here is
			// one engine call.
			run, end := append(m.readLPNs[:0], loc.lpn), done+bs
			for len(run) < cap(run) && len(buf)-end >= bs && len(locs) > 0 &&
				locs[0].key.Block == (off+int64(end))/int64(bs) && m.fullFlash(locs[0]) {
				run, locs = append(run, locs[0].lpn), locs[1:]
				end += bs
			}
			flashReads += int64(len(run))
			if err := m.fl.ReadPages(run, buf[done:end]); err != nil {
				return err
			}
			read += int64(end - done)
			done = end
			continue
		}
		done += len(dst)
		if loc == nil {
			clear(dst)
			continue
		}
		// Past the stored size, a page holds padding or a truncated tail:
		// dst takes the stored bytes from lo and zeroes after them.
		from := min(lo, loc.size)
		stored := dst[:min(len(dst), loc.size-from)]
		if loc.inDRAM() {
			dramReads++
			_, err = m.dram.ReadWindow(m.pageAddr(loc.dramPage), loc.size, from, stored)
		} else if lo == 0 && len(dst) >= bs {
			flashReads++
			err = m.readPage(loc.lpn, dst[:bs])
		} else {
			flashReads++
			if err = m.readPage(loc.lpn, m.readBuf); err == nil {
				copy(stored, m.readBuf[from:])
			}
		}
		if err != nil {
			return err
		}
		read += int64(loc.size)
		clear(dst[len(stored):])
	}
	return nil
}

// fullFlash reports whether loc is a full-size block in flash, the kind a
// run of engine reads carries.
func (m *Manager) fullFlash(loc *blockLoc) bool {
	return loc != nil && !loc.inDRAM() && loc.size == m.cfg.BlockBytes
}

// readPage reads one flash page through the engine's ReadPages.
func (m *Manager) readPage(lpn int64, buf []byte) error {
	return m.fl.ReadPages(append(m.readLPNs[:0], lpn), buf)
}

// BlockSize reports the stored size of a block, or 0 if absent.
func (m *Manager) BlockSize(key Key) int {
	if _, _, loc := m.find(key); loc != nil {
		return loc.size
	}
	return 0
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
	if t, i, _ := m.find(Key{object, first}); t != nil {
		return m.drop(object, t, i, len(t.locs))
	}
	return nil
}

// DeleteBlocksBefore drops the object's blocks below index end, in index
// order: the file system retires superseded checkpoint generations with
// it, whose blocks all sit below the newest one's.
func (m *Manager) DeleteBlocksBefore(object uint64, end int64) error {
	if t, i, _ := m.find(Key{object, end}); t != nil {
		return m.drop(object, t, 0, i)
	}
	return nil
}

// Blocks lists the indexes of the blocks the object holds, ascending. It
// reads the placement table only — no device is touched — so a mount can
// ask what survived before paying to read any of it.
func (m *Manager) Blocks(object uint64) []int64 {
	var out []int64
	if t := m.byObject[object]; t != nil {
		out = make([]int64, len(t.locs))
		for i, loc := range t.locs {
			out[i] = loc.key.Block
		}
	}
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
	t, i, loc := m.find(key)
	if loc == nil || size >= loc.size {
		return nil
	}
	if size <= 0 {
		return m.drop(key.Object, t, i, i+1)
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
	slices.Sort(out)
	return out
}

// DeleteBlock drops a single block.
func (m *Manager) DeleteBlock(key Key) error {
	if t, i, loc := m.find(key); loc != nil {
		return m.drop(key.Object, t, i, i+1)
	}
	return nil
}

// drop releases the blocks at table positions [i, j) in index order, then
// cuts them out of the table at once.
func (m *Manager) drop(object uint64, t *objTable, i, j int) (err error) {
	k := i
	for ; k < j; k++ {
		loc := t.locs[k]
		if loc.inDRAM() {
			m.deleteAbsorbed.Add(int64(loc.size))
			m.freeDRAM = append(m.freeDRAM, loc.dramPage)
			m.dequeueDirty(loc)
		}
		if loc.lpn >= 0 {
			if err = m.fl.TrimPage(loc.lpn); err != nil {
				break
			}
			m.freeLPN = append(m.freeLPN, loc.lpn)
		}
		m.free(loc)
	}
	m.cut(object, t, i, k)
	return err
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
		for {
			loc := m.dirtyOrder.Front()
			if loc == nil {
				break
			}
			if now.Sub(loc.dirtySince) < m.cfg.WriteBackDelay {
				break
			}
			m.daemon.Inc()
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

// SyncObject migrates the object's dirty blocks to flash in ascending
// block index, whatever order they were dirtied in — an fsync of one
// file, used by the file system to checkpoint its metadata object (its
// crash argument rests on that order: fs/checkpoint.go). The order is the
// table's own; migration moves no block in it.
func (m *Manager) SyncObject(object uint64) error {
	t := m.byObject[object]
	if t == nil {
		return nil
	}
	for _, loc := range t.locs {
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
	// Empty the dirty lists before recycling any loc: free resets the loc
	// wholesale, which would break the lists' link threading. Nothing
	// below touches a device or a page free list, so the walk's order is
	// unobservable.
	m.writeOrder.Init()
	m.dirtyOrder.Init()
	for obj, t := range m.byObject {
		kept := t.locs[:0]
		for _, loc := range t.locs {
			if loc.inDRAM() {
				// The dirty version in DRAM is gone either way; a block
				// that never reached flash goes with it.
				lostBytes += int64(loc.size)
				if loc.lpn < 0 {
					m.free(loc)
					continue
				}
				loc.dramPage = -1
			}
			// The persisted version is all that survives. An unflushed
			// truncation (size < flashSize) reverts.
			loc.size = loc.flashSize
			kept = append(kept, loc)
		}
		m.cut(obj, t, len(kept), len(t.locs))
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
	defer m.obs.SetCause(m.obs.SetCause(obs.CauseGroupCommitFlush))
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
