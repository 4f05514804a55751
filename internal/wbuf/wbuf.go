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
//
// The buffer is an accounting model: it tracks each block's size and
// dirty age, never its bytes, because E3 reports traffic and nothing
// reads the data back. A flush is counted and spanned, and the block is
// gone.
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
	// Obs receives the buffer's metrics and op spans; nil means standalone
	// collectors, nothing exported.
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
	size       int
	dirtySince sim.Time
	// links thread the entry onto writeOrder (LRW) and dirtyOrder
	// (dirty-age) intrusively, so queueing never allocates.
	links [2]entryLinks
}

// Link-pair indexes into entry.links.
const (
	lruLink  = iota // writeOrder: front = least recently written
	fifoLink        // dirtyOrder: front = dirty longest
)

type entryLinks struct{ prev, next *entry }

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
	lk.prev, lk.next = l.tail, nil
	if l.tail != nil {
		l.tail.links[l.idx].next = e
	} else {
		l.head = e
	}
	l.tail = e
}

func (l *entryList) Remove(e *entry) {
	lk := &e.links[l.idx]
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
	lk.prev, lk.next = nil, nil
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

	byObject   map[uint64]map[int64]*entry
	writeOrder entryList // front = least recently written
	dirtyOrder entryList // front = dirty longest
	size       int64

	obs                     *obs.Observer
	hostBytes, flushedBytes *obs.Counter
	overwriteAbsorbed       *obs.Counter
	deleteAbsorbed          *obs.Counter
	evictions, daemonFlush  *obs.Counter
}

// New builds an empty buffer.
func New(cfg Config, clock *sim.Clock) (*Buffer, error) {
	if cfg.BlockBytes <= 0 {
		return nil, fmt.Errorf("wbuf: non-positive block size %d", cfg.BlockBytes)
	}
	if cfg.CapacityBytes < 0 {
		return nil, fmt.Errorf("wbuf: negative capacity %d", cfg.CapacityBytes)
	}
	o := cfg.Obs
	b := &Buffer{
		cfg:               cfg,
		clock:             clock,
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
	return b, nil
}

// Write buffers n bytes for key. If the block is already buffered the
// write is absorbed in place and the block takes the new size.
func (b *Buffer) Write(key Key, n int) error {
	if n > b.cfg.BlockBytes {
		return fmt.Errorf("%w: %d > %d", ErrTooLarge, n, b.cfg.BlockBytes)
	}
	b.hostBytes.Add(int64(n))

	if b.cfg.CapacityBytes == 0 {
		// Buffer disabled: write-through.
		b.flushedBytes.Add(int64(n))
		return nil
	}

	blocks := b.byObject[key.Object]
	if e := blocks[key.Block]; e != nil {
		// The absorbed traffic is the incoming write — the bytes that
		// would otherwise have reached flash — not the size of the stale
		// buffered version it replaces.
		b.overwriteAbsorbed.Add(int64(n))
		b.size += int64(n - e.size)
		e.size = n
		b.writeOrder.MoveToBack(e)
	} else {
		e := &entry{key: key, size: n, dirtySince: b.clock.Now()}
		b.writeOrder.PushBack(e)
		b.dirtyOrder.PushBack(e)
		if blocks == nil {
			blocks = make(map[int64]*entry)
			b.byObject[key.Object] = blocks
		}
		blocks[key.Block] = e
		b.size += int64(n)
	}
	// Over capacity the buffer holds at least one block to evict.
	for b.size > b.cfg.CapacityBytes {
		e := b.writeOrder.Front()
		if b.cfg.Policy == EvictFIFO {
			e = b.dirtyOrder.Front()
		}
		b.evictions.Inc()
		b.flush(e)
	}
	return nil
}

// InvalidateObject drops every buffered block of the object (the file was
// deleted); those bytes never reach stable storage.
func (b *Buffer) InvalidateObject(object uint64) {
	for _, e := range b.byObject[object] {
		b.deleteAbsorbed.Add(int64(e.size))
		b.unlink(e)
	}
	delete(b.byObject, object)
}

// unlink takes the entry off both lists and out of the buffered size;
// the caller removes it from byObject.
func (b *Buffer) unlink(e *entry) {
	b.writeOrder.Remove(e)
	b.dirtyOrder.Remove(e)
	b.size -= int64(e.size)
}

// flush counts the entry as written to stable storage and removes it.
func (b *Buffer) flush(e *entry) {
	sp := b.obs.StageSpan(b.clock, nil, "wbuf", "flush", obs.StageFlush)
	b.flushedBytes.Add(int64(e.size))
	b.unlink(e)
	blocks := b.byObject[e.key.Object]
	delete(blocks, e.key.Block)
	if len(blocks) == 0 {
		delete(b.byObject, e.key.Object)
	}
	sp.End(int64(e.size), nil)
}

// Tick runs the write-back daemon: every block dirty for at least the
// write-back delay is flushed. The driving layer calls it before each
// foreground operation.
func (b *Buffer) Tick() {
	if b.cfg.WriteBackDelay <= 0 {
		return
	}
	now := b.clock.Now()
	for e := b.dirtyOrder.Front(); e != nil && now.Sub(e.dirtySince) >= b.cfg.WriteBackDelay; e = b.dirtyOrder.Front() {
		b.daemonFlush.Inc()
		b.flush(e)
	}
}

// Sync flushes everything, oldest dirty first. The flushes are forced
// out early by the explicit sync, so their flash programs are charged to
// the group-commit-flush cause rather than the write-back default.
func (b *Buffer) Sync() {
	defer b.obs.SetCause(b.obs.SetCause(obs.CauseGroupCommitFlush))
	for e := b.dirtyOrder.Front(); e != nil; e = b.dirtyOrder.Front() {
		b.flush(e)
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
