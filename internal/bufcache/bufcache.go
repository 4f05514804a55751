// Package bufcache implements the classic Unix-style file buffer cache
// that conventional disk-based organisations need and the paper's
// solid-state organisation eliminates ("traditional file system caches
// are unnecessary because all data and metadata always reside in fast
// storage", §3.1).
//
// The cache holds disk blocks in a region of the DRAM device — the very
// data duplication the paper wants to do away with — serving reads from
// DRAM on hit and paying full mechanical latency on miss. Writes are
// write-back with the 30-second-style delayed flush, or write-through for
// callers (metadata) that demand durability.
package bufcache

import (
	"container/list"
	"errors"
	"fmt"

	"ssmobile/internal/dram"
	"ssmobile/internal/obs"
	"ssmobile/internal/sim"
)

// ErrBadBlock reports an access outside the backing device.
var ErrBadBlock = errors.New("bufcache: block out of range")

// Backing is the device behind the cache (a disk).
type Backing interface {
	Read(addr int64, buf []byte) (sim.Duration, error)
	Write(addr int64, p []byte) (sim.Duration, error)
	Capacity() int64
}

// Config parameterises the cache.
type Config struct {
	// BlockBytes is the cache block size.
	BlockBytes int
	// DRAMBase and DRAMBytes delimit the cache's region of the DRAM
	// device; the capacity in blocks is DRAMBytes/BlockBytes.
	DRAMBase  int64
	DRAMBytes int64
	// WriteBackDelay is the age at which dirty blocks are flushed by
	// Tick; zero keeps them until eviction or Sync.
	WriteBackDelay sim.Duration
	// Obs receives the cache's metrics and op spans; nil falls back to
	// obs.Default().
	Obs *obs.Observer
}

// Stats aggregates cache counters.
type Stats struct {
	Hits, Misses  int64
	ReadBlocks    int64
	WrittenBlocks int64 // blocks the host wrote
	FlushedBlocks int64 // blocks written to the backing device
	WriteThroughs int64
	Evictions     int64
}

type centry struct {
	bn         int64
	slot       int
	dirty      bool
	dirtySince sim.Time
	lruElem    *list.Element
}

// Cache is the buffer cache. Not safe for concurrent use.
type Cache struct {
	cfg     Config
	clock   *sim.Clock
	dram    *dram.Device
	backing Backing

	entries   map[int64]*centry
	lru       *list.List // front = least recently used
	freeSlots []int
	slots     int
	// oldestDirty is a lower bound on every dirty entry's dirtySince
	// (sim.Forever: none is dirty), so Tick skips its walk until
	// something can have come of age.
	oldestDirty sim.Time

	obs                          *obs.Observer
	hits, misses, readBlocks     *obs.Counter
	writtenBlocks, flushedBlocks *obs.Counter
	writeThroughs, evictions     *obs.Counter
}

// New builds an empty cache over backing.
func New(cfg Config, clock *sim.Clock, dramDev *dram.Device, backing Backing) (*Cache, error) {
	if cfg.BlockBytes <= 0 {
		return nil, fmt.Errorf("bufcache: non-positive block size")
	}
	if cfg.DRAMBase < 0 || cfg.DRAMBase+cfg.DRAMBytes > dramDev.Capacity() {
		return nil, fmt.Errorf("bufcache: region outside DRAM")
	}
	o := obs.Or(cfg.Obs)
	lbl := obs.Labels{"layer": "bufcache"}
	blk := func(op string) obs.Labels { return obs.Labels{"layer": "bufcache", "op": op} }
	c := &Cache{
		cfg:           cfg,
		clock:         clock,
		dram:          dramDev,
		backing:       backing,
		entries:       make(map[int64]*centry),
		lru:           list.New(),
		slots:         int(cfg.DRAMBytes / int64(cfg.BlockBytes)),
		oldestDirty:   sim.Forever,
		obs:           o,
		hits:          o.Counter("cache_hits_total", lbl),
		misses:        o.Counter("cache_misses_total", lbl),
		readBlocks:    o.Counter("blocks_total", blk("read")),
		writtenBlocks: o.Counter("blocks_total", blk("write")),
		flushedBlocks: o.Counter("blocks_total", blk("flush")),
		writeThroughs: o.Counter("blocks_total", blk("write_through")),
		evictions:     o.Counter("evictions_total", lbl),
	}
	for s := c.slots - 1; s >= 0; s-- {
		c.freeSlots = append(c.freeSlots, s)
	}
	return c, nil
}

// BlockBytes reports the cache block size.
func (c *Cache) BlockBytes() int { return c.cfg.BlockBytes }

// Blocks reports the backing capacity in blocks.
func (c *Cache) Blocks() int64 { return c.backing.Capacity() / int64(c.cfg.BlockBytes) }

func (c *Cache) slotAddr(slot int) int64 {
	return c.cfg.DRAMBase + int64(slot)*int64(c.cfg.BlockBytes)
}

func (c *Cache) diskAddr(bn int64) int64 { return bn * int64(c.cfg.BlockBytes) }

func (c *Cache) checkBlock(bn int64) error {
	if bn < 0 || bn >= c.Blocks() {
		return fmt.Errorf("%w: %d of %d", ErrBadBlock, bn, c.Blocks())
	}
	return nil
}

// allocSlot returns a cache slot, evicting the LRU entry if needed.
func (c *Cache) allocSlot() (int, error) {
	if n := len(c.freeSlots); n > 0 {
		s := c.freeSlots[n-1]
		c.freeSlots = c.freeSlots[:n-1]
		return s, nil
	}
	el := c.lru.Front()
	if el == nil {
		return 0, fmt.Errorf("bufcache: no slots and nothing to evict")
	}
	e := el.Value.(*centry)
	c.evictions.Inc()
	if e.dirty {
		if err := c.flushEntry(e); err != nil {
			return 0, err
		}
	}
	c.lru.Remove(e.lruElem)
	delete(c.entries, e.bn)
	return e.slot, nil
}

// span opens an op span against the cache's clock and the DRAM device's
// energy meter (shared with the backing disk in assembled systems).
func (c *Cache) span(op string) obs.SpanRef {
	return c.obs.Span(c.clock, c.dram.Meter(), "bufcache", op)
}

// flushEntry writes the entry's contents to the backing device.
func (c *Cache) flushEntry(e *centry) (err error) {
	sp := c.span("flush")
	defer func() { sp.End(int64(c.cfg.BlockBytes), err) }()
	buf := make([]byte, c.cfg.BlockBytes)
	if _, err := c.dram.Read(c.slotAddr(e.slot), buf); err != nil {
		return err
	}
	if _, err := c.backing.Write(c.diskAddr(e.bn), buf); err != nil {
		return err
	}
	e.dirty = false
	c.flushedBlocks.Inc()
	return nil
}

// load brings the block into the cache and returns its entry.
func (c *Cache) load(bn int64, fill bool) (*centry, error) {
	if e, ok := c.entries[bn]; ok {
		c.hits.Inc()
		c.lru.MoveToBack(e.lruElem)
		return e, nil
	}
	c.misses.Inc()
	slot, err := c.allocSlot()
	if err != nil {
		return nil, err
	}
	if fill {
		buf := make([]byte, c.cfg.BlockBytes)
		if _, err := c.backing.Read(c.diskAddr(bn), buf); err != nil {
			return nil, err
		}
		if _, err := c.dram.Write(c.slotAddr(slot), buf); err != nil {
			return nil, err
		}
	}
	e := &centry{bn: bn, slot: slot}
	e.lruElem = c.lru.PushBack(e)
	c.entries[bn] = e
	return e, nil
}

// ReadBlock fetches block bn into buf (one block).
func (c *Cache) ReadBlock(bn int64, buf []byte) (err error) {
	if err := c.checkBlock(bn); err != nil {
		return err
	}
	sp := c.span("read_block")
	defer func() { sp.End(int64(len(buf)), err) }()
	e, err := c.load(bn, true)
	if err != nil {
		return err
	}
	c.readBlocks.Inc()
	n := len(buf)
	if n > c.cfg.BlockBytes {
		n = c.cfg.BlockBytes
	}
	_, err = c.dram.Read(c.slotAddr(e.slot), buf[:n])
	return err
}

// WriteBlock stores one whole block, write-back.
func (c *Cache) WriteBlock(bn int64, data []byte) error {
	return c.writeBlock(bn, data, false)
}

// WriteBlockThrough stores one block and forces it to the backing device
// immediately (synchronous metadata updates in the conventional FS).
func (c *Cache) WriteBlockThrough(bn int64, data []byte) error {
	return c.writeBlock(bn, data, true)
}

func (c *Cache) writeBlock(bn int64, data []byte, through bool) (err error) {
	if err := c.checkBlock(bn); err != nil {
		return err
	}
	if len(data) > c.cfg.BlockBytes {
		return fmt.Errorf("bufcache: data of %d exceeds block size %d", len(data), c.cfg.BlockBytes)
	}
	sp := c.span("write_block")
	defer func() { sp.End(int64(len(data)), err) }()
	// Partial block writes need the old contents under them.
	fill := len(data) < c.cfg.BlockBytes
	e, err := c.load(bn, fill)
	if err != nil {
		return err
	}
	if _, err := c.dram.Write(c.slotAddr(e.slot), data); err != nil {
		return err
	}
	c.writtenBlocks.Inc()
	if through {
		c.writeThroughs.Inc()
		return c.flushEntry(e)
	}
	if !e.dirty {
		e.dirty = true
		e.dirtySince = c.clock.Now()
		c.oldestDirty = min(c.oldestDirty, e.dirtySince)
	}
	return nil
}

// Tick flushes blocks dirty longer than the write-back delay, in LRU
// order. It returns at once while no dirty block can be that old.
func (c *Cache) Tick() error {
	now := c.clock.Now()
	if c.cfg.WriteBackDelay <= 0 || now.Sub(c.oldestDirty) < c.cfg.WriteBackDelay {
		return nil
	}
	oldest := sim.Forever // of the blocks the walk leaves dirty
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*centry)
		if !e.dirty {
			continue
		}
		if now.Sub(e.dirtySince) < c.cfg.WriteBackDelay {
			oldest = min(oldest, e.dirtySince)
		} else if err := c.flushEntry(e); err != nil {
			return err // the old bound still holds
		}
	}
	c.oldestDirty = oldest
	return nil
}

// Sync flushes every dirty block.
func (c *Cache) Sync() error {
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*centry)
		if e.dirty {
			if err := c.flushEntry(e); err != nil {
				return err
			}
		}
	}
	return nil
}

// Invalidate drops the block from the cache without flushing (freed
// blocks of deleted files).
func (c *Cache) Invalidate(bn int64) {
	if e, ok := c.entries[bn]; ok {
		c.lru.Remove(e.lruElem)
		delete(c.entries, bn)
		c.freeSlots = append(c.freeSlots, e.slot)
	}
}

// Stats summarises cache counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:          c.hits.Value(),
		Misses:        c.misses.Value(),
		ReadBlocks:    c.readBlocks.Value(),
		WrittenBlocks: c.writtenBlocks.Value(),
		FlushedBlocks: c.flushedBlocks.Value(),
		WriteThroughs: c.writeThroughs.Value(),
		Evictions:     c.evictions.Value(),
	}
}
