// Package wbuf implements the battery-backed DRAM write buffer of the
// paper's physical storage manager (§3.3): written data is held in DRAM
// and flushed to flash lazily, so that the many bytes that die young —
// short-lived files and blocks that are promptly overwritten — never reach
// flash at all.
//
// This is the mechanism behind the paper's quantitative anchor: "as little
// as one megabyte of battery-backed RAM can reduce write traffic by 40 to
// 50%" (citing Baker et al.). Because the buffer is battery-backed, data
// parked here survives OS crashes, which is what makes the laziness safe.
//
// The buffer absorbs traffic through two routes:
//
//   - overwrite absorption: a write to a block that is already buffered
//     dirty replaces it in place;
//   - death absorption: when a file is deleted, its dirty blocks are
//     dropped without ever being flushed.
//
// Dirty blocks leave the buffer either because a write-back daemon flushes
// blocks older than the write-back delay (the classic 30-second Unix
// syncer policy) or because the buffer is full and must evict.
package wbuf

import (
	"errors"
	"fmt"

	"ssmobile/internal/obs"
	"ssmobile/internal/sim"
)

// ErrTooLarge reports a block bigger than the buffer's block size.
var ErrTooLarge = errors.New("wbuf: data exceeds block size")

// Key names one buffered block: an object (file) and a block index within
// it.
type Key struct {
	Object uint64
	Block  int64
}

// Sink receives blocks the buffer flushes to stable storage.
type Sink interface {
	FlushBlock(key Key, data []byte) error
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(key Key, data []byte) error

// FlushBlock calls f.
func (f SinkFunc) FlushBlock(key Key, data []byte) error { return f(key, data) }

// EvictPolicy selects which dirty block is flushed first when the buffer
// is full.
type EvictPolicy int

// Eviction policies.
const (
	// EvictLRW flushes the least recently written block: the hot set stays
	// buffered, maximising overwrite absorption.
	EvictLRW EvictPolicy = iota
	// EvictFIFO flushes the block that has been dirty longest regardless
	// of recent activity.
	EvictFIFO
)

// String names the policy.
func (p EvictPolicy) String() string {
	switch p {
	case EvictLRW:
		return "lrw"
	case EvictFIFO:
		return "fifo"
	default:
		return fmt.Sprintf("EvictPolicy(%d)", int(p))
	}
}

// Config parameterises the buffer.
type Config struct {
	// CapacityBytes bounds the total buffered data. Zero means the buffer
	// is disabled: every write flushes through immediately.
	CapacityBytes int64
	// BlockBytes is the maximum (and usual) block size.
	BlockBytes int
	// WriteBackDelay is the age at which the daemon flushes a dirty block,
	// measured from when the block first became dirty. Zero disables
	// age-based flushing (blocks leave only by eviction or Sync).
	WriteBackDelay sim.Duration
	// Policy selects the eviction order.
	Policy EvictPolicy
	// Obs receives the buffer's metrics and op spans; nil falls back to
	// obs.Default().
	Obs *obs.Observer
}

// Stats aggregates the buffer's traffic accounting.
type Stats struct {
	// HostBytes is everything the host wrote.
	HostBytes int64
	// FlushedBytes is what actually reached stable storage.
	FlushedBytes int64
	// OverwriteAbsorbedBytes were absorbed by in-place overwrites.
	OverwriteAbsorbedBytes int64
	// DeleteAbsorbedBytes were dropped when their file died.
	DeleteAbsorbedBytes int64
	// Evictions counts capacity-forced flushes; DaemonFlushes age-forced.
	Evictions, DaemonFlushes int64
}

// Reduction reports the write-traffic reduction 1 − flushed/host, the
// metric the paper quotes.
func (s Stats) Reduction() float64 {
	if s.HostBytes == 0 {
		return 0
	}
	return 1 - float64(s.FlushedBytes)/float64(s.HostBytes)
}

type entry struct {
	key        Key
	data       []byte
	dirtySince sim.Time
	lastWrite  sim.Time
	// links thread the entry onto writeOrder (LRW) and dirtyOrder
	// (dirty-age) intrusively, so queueing never allocates.
	links [2]entryLinks
}

// Link-pair indexes into entry.links.
const (
	lruLink  = iota // writeOrder: front = least recently written
	fifoLink        // dirtyOrder: front = dirty longest
)

type entryLinks struct {
	prev, next *entry
	queued     bool
}

// entryList is an intrusive doubly-linked list of entries threading the
// link pair selected by idx; it replaces container/list so list
// housekeeping touches only existing nodes.
type entryList struct {
	head, tail *entry
	idx        int
}

func (l *entryList) Front() *entry { return l.head }

func (l *entryList) PushBack(e *entry) {
	lk := &e.links[l.idx]
	lk.prev, lk.next, lk.queued = l.tail, nil, true
	if l.tail != nil {
		l.tail.links[l.idx].next = e
	} else {
		l.head = e
	}
	l.tail = e
}

func (l *entryList) Remove(e *entry) {
	lk := &e.links[l.idx]
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
}

func (l *entryList) MoveToBack(e *entry) {
	if l.tail == e {
		return
	}
	l.Remove(e)
	l.PushBack(e)
}

// Buffer is the write buffer. Not safe for concurrent use.
type Buffer struct {
	cfg   Config
	clock *sim.Clock
	sink  Sink

	entries    map[Key]*entry
	byObject   map[uint64]map[int64]*entry
	writeOrder entryList // front = least recently written
	dirtyOrder entryList // front = dirty longest
	size       int64

	// entryFree recycles dropped entries — including their data capacity —
	// and freeMaps recycles emptied per-object maps; ordered is the
	// InvalidateObject scratch.
	entryFree []*entry
	freeMaps  []map[int64]*entry
	ordered   []*entry

	obs                     *obs.Observer
	hostBytes, flushedBytes *obs.Counter
	overwriteAbsorbed       *obs.Counter
	deleteAbsorbed          *obs.Counter
	evictions, daemonFlush  *obs.Counter
}

// New builds an empty buffer flushing into sink.
func New(cfg Config, clock *sim.Clock, sink Sink) (*Buffer, error) {
	if cfg.BlockBytes <= 0 {
		return nil, fmt.Errorf("wbuf: non-positive block size %d", cfg.BlockBytes)
	}
	if cfg.CapacityBytes < 0 {
		return nil, fmt.Errorf("wbuf: negative capacity %d", cfg.CapacityBytes)
	}
	if sink == nil {
		return nil, fmt.Errorf("wbuf: nil sink")
	}
	o := obs.Or(cfg.Obs)
	b := &Buffer{
		cfg:               cfg,
		clock:             clock,
		sink:              sink,
		entries:           make(map[Key]*entry),
		byObject:          make(map[uint64]map[int64]*entry),
		writeOrder:        entryList{idx: lruLink},
		dirtyOrder:        entryList{idx: fifoLink},
		obs:               o,
		hostBytes:         o.Counter("host_bytes_total", obs.Labels{"layer": "wbuf"}),
		flushedBytes:      o.Counter("flushed_bytes_total", obs.Labels{"layer": "wbuf"}),
		overwriteAbsorbed: o.Counter("absorbed_bytes_total", obs.Labels{"layer": "wbuf", "reason": "overwrite"}),
		deleteAbsorbed:    o.Counter("absorbed_bytes_total", obs.Labels{"layer": "wbuf", "reason": "delete"}),
		evictions:         o.Counter("evictions_total", obs.Labels{"layer": "wbuf"}),
		daemonFlush:       o.Counter("daemon_flushes_total", obs.Labels{"layer": "wbuf"}),
	}
	// Exported for E3's dashboards only: the serving stack does not run
	// this buffer (its admission control reads storman.BufferOccupancy).
	o.GaugeFunc("occupancy", obs.Labels{"layer": "wbuf"}, b.Occupancy)
	return b, nil
}

// Occupancy reports the buffered fraction of capacity in [0, 1]; a
// disabled (zero-capacity) buffer reports 0.
func (b *Buffer) Occupancy() float64 {
	if b.cfg.CapacityBytes <= 0 {
		return 0
	}
	return float64(b.size) / float64(b.cfg.CapacityBytes)
}

// Config returns the buffer configuration.
func (b *Buffer) Config() Config { return b.cfg }

// Len reports the number of buffered blocks.
func (b *Buffer) Len() int { return len(b.entries) }

// Size reports the buffered bytes.
func (b *Buffer) Size() int64 { return b.size }

// Write buffers data for key. If the block is already buffered the write
// is absorbed in place. The data is copied.
func (b *Buffer) Write(key Key, data []byte) error {
	if len(data) > b.cfg.BlockBytes {
		return fmt.Errorf("%w: %d > %d", ErrTooLarge, len(data), b.cfg.BlockBytes)
	}
	b.hostBytes.Add(int64(len(data)))

	if b.cfg.CapacityBytes == 0 {
		// Buffer disabled: write-through.
		b.flushedBytes.Add(int64(len(data)))
		return b.sink.FlushBlock(key, data)
	}

	now := b.clock.Now()
	if e, ok := b.entries[key]; ok {
		// The absorbed traffic is the incoming write — the bytes that
		// would otherwise have reached flash — not the size of the stale
		// buffered version it replaces.
		b.overwriteAbsorbed.Add(int64(len(data)))
		b.size += int64(len(data)) - int64(len(e.data))
		e.data = append(e.data[:0], data...)
		e.lastWrite = now
		b.writeOrder.MoveToBack(e)
		return b.ensureCapacity()
	}

	e := b.newEntry()
	e.key = key
	e.data = append(e.data[:0], data...)
	e.dirtySince = now
	e.lastWrite = now
	b.writeOrder.PushBack(e)
	b.dirtyOrder.PushBack(e)
	b.entries[key] = e
	blocks := b.byObject[key.Object]
	if blocks == nil {
		if n := len(b.freeMaps); n > 0 {
			blocks = b.freeMaps[n-1]
			b.freeMaps = b.freeMaps[:n-1]
		} else {
			blocks = make(map[int64]*entry)
		}
		b.byObject[key.Object] = blocks
	}
	blocks[key.Block] = e
	b.size += int64(len(data))
	return b.ensureCapacity()
}

// newEntry returns a reset entry, reusing a recycled one (and its data
// capacity) when possible.
func (b *Buffer) newEntry() *entry {
	if n := len(b.entryFree); n > 0 {
		e := b.entryFree[n-1]
		b.entryFree = b.entryFree[:n-1]
		return e
	}
	return &entry{}
}

// Read returns the buffered data for key, if present. The returned slice
// is the buffer's own copy; callers must not modify it, and it is only
// valid until the block leaves the buffer (flush or invalidation — the
// backing array is recycled for later writes).
func (b *Buffer) Read(key Key) ([]byte, bool) {
	e, ok := b.entries[key]
	if !ok {
		return nil, false
	}
	return e.data, true
}

// InvalidateObject drops every buffered block of the object (the file was
// deleted); those bytes never reach stable storage.
func (b *Buffer) InvalidateObject(object uint64) {
	blocks := b.byObject[object]
	// Drop in block order, not map order, so the free list (and therefore
	// every later allocation) is identical run to run. The scratch slice
	// is reused and sorted by hand (sort.Slice allocates per call).
	ordered := b.ordered[:0]
	for _, e := range blocks {
		ordered = append(ordered, e)
	}
	for i := 1; i < len(ordered); i++ {
		for j := i; j > 0 && ordered[j].key.Block < ordered[j-1].key.Block; j-- {
			ordered[j], ordered[j-1] = ordered[j-1], ordered[j]
		}
	}
	b.ordered = ordered
	for _, e := range ordered {
		b.deleteAbsorbed.Add(int64(len(e.data)))
		b.drop(e)
	}
	delete(b.byObject, object)
}

// drop removes the entry without flushing and recycles it. The entry is
// reset to zero state (keeping only its data capacity) so a recycled
// entry can never leak a stale key, timestamps or list links.
func (b *Buffer) drop(e *entry) {
	delete(b.entries, e.key)
	if blocks := b.byObject[e.key.Object]; blocks != nil {
		delete(blocks, e.key.Block)
		if len(blocks) == 0 {
			delete(b.byObject, e.key.Object)
			b.freeMaps = append(b.freeMaps, blocks)
		}
	}
	b.writeOrder.Remove(e)
	b.dirtyOrder.Remove(e)
	b.size -= int64(len(e.data))
	data := e.data[:0]
	*e = entry{data: data}
	b.entryFree = append(b.entryFree, e)
}

// flush writes the entry to the sink and removes it.
func (b *Buffer) flush(e *entry) (err error) {
	// drop recycles the entry, so its size is captured up front for the
	// deferred span close.
	n := int64(len(e.data))
	sp := b.obs.StageSpan(b.clock, nil, "wbuf", "flush", obs.StageFlush)
	defer func() { sp.End(n, err) }()
	b.flushedBytes.Add(n)
	if err := b.sink.FlushBlock(e.key, e.data); err != nil {
		return err
	}
	b.drop(e)
	return nil
}

// victim picks the next entry to evict under the configured policy.
func (b *Buffer) victim() *entry {
	if b.cfg.Policy == EvictFIFO {
		return b.dirtyOrder.Front()
	}
	return b.writeOrder.Front()
}

func (b *Buffer) ensureCapacity() error {
	for b.size > b.cfg.CapacityBytes {
		e := b.victim()
		if e == nil {
			return nil
		}
		b.evictions.Inc()
		if err := b.flush(e); err != nil {
			return err
		}
	}
	return nil
}

// Tick runs the write-back daemon: every block dirty for at least the
// write-back delay is flushed. The driving layer calls it periodically
// (via a sim event or before foreground operations).
func (b *Buffer) Tick() error {
	if b.cfg.WriteBackDelay <= 0 {
		return nil
	}
	now := b.clock.Now()
	for {
		e := b.dirtyOrder.Front()
		if e == nil {
			return nil
		}
		if now.Sub(e.dirtySince) < b.cfg.WriteBackDelay {
			return nil
		}
		b.daemonFlush.Inc()
		if err := b.flush(e); err != nil {
			return err
		}
	}
}

// Sync flushes everything, oldest dirty first. The flushes are forced
// out early by the explicit sync, so their flash programs are charged to
// the group-commit-flush cause rather than the write-back default.
func (b *Buffer) Sync() error {
	defer b.obs.PushCause(obs.CauseGroupCommitFlush)()
	for {
		e := b.dirtyOrder.Front()
		if e == nil {
			return nil
		}
		if err := b.flush(e); err != nil {
			return err
		}
	}
}

// Stats summarises the buffer's traffic accounting.
func (b *Buffer) Stats() Stats {
	return Stats{
		HostBytes:              b.hostBytes.Value(),
		FlushedBytes:           b.flushedBytes.Value(),
		OverwriteAbsorbedBytes: b.overwriteAbsorbed.Value(),
		DeleteAbsorbedBytes:    b.deleteAbsorbed.Value(),
		Evictions:              b.evictions.Value(),
		DaemonFlushes:          b.daemonFlush.Value(),
	}
}
