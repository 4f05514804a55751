package bufcache

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"ssmobile/internal/device"
	"ssmobile/internal/disk"
	"ssmobile/internal/dram"
	"ssmobile/internal/sim"
)

type rig struct {
	clock *sim.Clock
	meter *sim.EnergyMeter
	dram  *dram.Device
	disk  *disk.Device
	cache *Cache
}

func newRig(t *testing.T, cacheBytes int64) *rig {
	t.Helper()
	clock := sim.NewClock()
	meter := sim.NewEnergyMeter()
	dr, err := dram.New(dram.Config{CapacityBytes: 4 << 20, Params: device.NECDram}, clock, meter)
	if err != nil {
		t.Fatal(err)
	}
	dk, err := disk.New(disk.Config{CapacityBytes: 8 << 20, Params: device.KittyHawk}, clock, meter)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{DRAMBytes: cacheBytes}, clock, dr, dk)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{clock: clock, meter: meter, dram: dr, disk: dk, cache: c}
}

func blockOf(b byte) []byte { return bytes.Repeat([]byte{b}, 4096) }

// onDisk reads the byte at addr from the drive itself, past the cache.
func (r *rig) onDisk(t *testing.T, addr int64) byte {
	t.Helper()
	var b [1]byte
	if _, err := r.disk.Read(addr, b[:]); err != nil {
		t.Fatal(err)
	}
	return b[0]
}

func TestValidation(t *testing.T) {
	r := newRig(t, 1<<20)
	if _, err := New(Config{DRAMBytes: 1 << 40}, r.clock, r.dram, r.disk); err == nil {
		t.Error("region outside DRAM accepted")
	}
}

func TestWriteReadThroughCache(t *testing.T) {
	r := newRig(t, 1<<20)
	if err := r.cache.WriteBlock(5, blockOf(0xAB)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	if err := r.cache.ReadBlock(5, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0xAB {
		t.Fatal("read wrong data")
	}
	// Dirty data has not reached the disk yet.
	if r.onDisk(t, 5*4096) == 0xAB {
		t.Fatal("write-back cache wrote through")
	}
	if err := r.cache.Sync(); err != nil {
		t.Fatal(err)
	}
	if r.onDisk(t, 5*4096) != 0xAB {
		t.Fatal("sync did not reach disk")
	}
}

func TestWriteThrough(t *testing.T) {
	r := newRig(t, 1<<20)
	if err := r.cache.WriteBlockThrough(3, blockOf(0x77)); err != nil {
		t.Fatal(err)
	}
	if r.onDisk(t, 3*4096) != 0x77 {
		t.Fatal("write-through did not reach disk")
	}
	if r.cache.writeThroughs.Value() != 1 {
		t.Fatal("write-through not counted")
	}
}

func TestHitAvoidsDisk(t *testing.T) {
	r := newRig(t, 1<<20)
	buf := make([]byte, 4096)
	if err := r.cache.ReadBlock(1, buf); err != nil { // miss
		t.Fatal(err)
	}
	missLatStart := r.clock.Now()
	if err := r.cache.ReadBlock(1, buf); err != nil { // hit
		t.Fatal(err)
	}
	hitLat := r.clock.Now().Sub(missLatStart)
	if hitLat > sim.Millisecond {
		t.Fatalf("cache hit took %v; should be DRAM speed", hitLat)
	}
	if hits, misses := r.cache.hits.Value(), r.cache.misses.Value(); hits != 1 || misses != 1 {
		t.Fatalf("%d hits, %d misses", hits, misses)
	}
}

func TestEvictionWritesDirtyBack(t *testing.T) {
	// Cache of 2 blocks.
	r := newRig(t, 2*4096)
	if err := r.cache.WriteBlock(0, blockOf(1)); err != nil {
		t.Fatal(err)
	}
	if err := r.cache.WriteBlock(1, blockOf(2)); err != nil {
		t.Fatal(err)
	}
	if err := r.cache.WriteBlock(2, blockOf(3)); err != nil { // evicts block 0
		t.Fatal(err)
	}
	if r.onDisk(t, 0) != 1 {
		t.Fatal("evicted dirty block not written back")
	}
	if r.cache.evictions.Value() != 1 {
		t.Fatal("eviction not counted")
	}
	// All three blocks still correct.
	buf := make([]byte, 4096)
	for bn := int64(0); bn < 3; bn++ {
		if err := r.cache.ReadBlock(bn, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(bn+1) {
			t.Fatalf("block %d corrupted", bn)
		}
	}
}

func TestTickFlushesAged(t *testing.T) {
	r := newRig(t, 1<<20)
	if err := r.cache.WriteBlock(7, blockOf(9)); err != nil {
		t.Fatal(err)
	}
	if err := r.cache.Tick(); err != nil {
		t.Fatal(err)
	}
	if r.onDisk(t, 7*4096) == 9 {
		t.Fatal("young block flushed early")
	}
	r.clock.Advance(31 * sim.Second)
	if err := r.cache.Tick(); err != nil {
		t.Fatal(err)
	}
	if r.onDisk(t, 7*4096) != 9 {
		t.Fatal("aged block not flushed")
	}
}

// flushLog is a backing device that records each block written to it and
// the script step that wrote it.
type flushLog struct {
	Backing
	step int
	got  []flushAt
}

type flushAt struct {
	step int
	bn   int64
}

func (l *flushLog) Write(addr int64, p []byte) (sim.Duration, error) {
	l.got = append(l.got, flushAt{l.step, addr / 4096})
	return l.Backing.Write(addr, p)
}

// TestTickMatchesFullWalk drives a seeded script of writes, write-throughs,
// reads, invalidations, syncs, evictions and ticks, and holds the cache's
// flushes to a model whose Tick walks the whole LRU every time: the same
// blocks, in the same order, at the same steps. The model takes each
// block's dirtySince from the cache, since the devices advance the clock
// within an op.
func TestTickMatchesFullWalk(t *testing.T) {
	const (
		slots  = 24
		blocks = 32
	)
	r := newRig(t, 1<<20)
	log := &flushLog{Backing: r.disk}
	c, err := New(Config{DRAMBytes: slots * 4096}, r.clock, r.dram, log)
	if err != nil {
		t.Fatal(err)
	}

	// The model: the LRU as a slice, front first, and each dirty block's
	// dirtySince.
	var lru []int64
	dirty := map[int64]sim.Time{}
	var want []flushAt
	flush := func(bn int64) {
		want = append(want, flushAt{log.step, bn})
		delete(dirty, bn)
	}
	load := func(bn int64) {
		if i := slices.Index(lru, bn); i >= 0 {
			lru = append(slices.Delete(lru, i, i+1), bn)
			return
		}
		if len(lru) == slots {
			if _, ok := dirty[lru[0]]; ok {
				flush(lru[0])
			}
			lru = lru[1:]
		}
		lru = append(lru, bn)
	}
	walk := func(due func(since sim.Time) bool) {
		for _, bn := range lru {
			if since, ok := dirty[bn]; ok && due(since) {
				flush(bn)
			}
		}
	}

	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 4096)
	for step := 0; step < 5000; step++ {
		log.step = step
		bn := rng.Int63n(blocks)
		switch k := rng.Intn(100); {
		case k < 60:
			if err := c.WriteBlock(bn, blockOf(byte(step))); err != nil {
				t.Fatal(err)
			}
			load(bn)
			dirty[bn] = c.entries[bn].dirtySince
		case k < 65:
			if err := c.WriteBlockThrough(bn, blockOf(byte(step))); err != nil {
				t.Fatal(err)
			}
			load(bn)
			flush(bn)
		case k < 90:
			if err := c.ReadBlock(bn, buf); err != nil {
				t.Fatal(err)
			}
			load(bn)
		case k < 97:
			c.Invalidate(bn)
			if i := slices.Index(lru, bn); i >= 0 {
				lru = slices.Delete(lru, i, i+1)
			}
			delete(dirty, bn)
		default:
			if err := c.Sync(); err != nil {
				t.Fatal(err)
			}
			walk(func(sim.Time) bool { return true })
		}
		r.clock.Advance(sim.Duration(rng.Int63n(int64(4 * sim.Second))))
		now := r.clock.Now() // Tick's flushes advance the clock
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
		walk(func(since sim.Time) bool { return now.Sub(since) >= writeBackDelay })
		if !slices.Equal(log.got, want) {
			n := min(len(log.got), len(want), 3)
			t.Fatalf("step %d: the cache's flushes end %v; the full walk's %v", step, log.got[len(log.got)-n:], want[len(want)-n:])
		}
	}
	if len(want) < 500 {
		t.Fatalf("the script flushed only %d blocks; it exercises too little", len(want))
	}
}

func TestInvalidateDropsWithoutFlush(t *testing.T) {
	r := newRig(t, 1<<20)
	if err := r.cache.WriteBlock(4, blockOf(0xEE)); err != nil {
		t.Fatal(err)
	}
	r.cache.Invalidate(4)
	if err := r.cache.Sync(); err != nil {
		t.Fatal(err)
	}
	if r.onDisk(t, 4*4096) == 0xEE {
		t.Fatal("invalidated block reached disk")
	}
}

func TestPartialWritePreservesRest(t *testing.T) {
	r := newRig(t, 1<<20)
	if err := r.cache.WriteBlock(2, blockOf(0x11)); err != nil {
		t.Fatal(err)
	}
	if err := r.cache.Sync(); err != nil {
		t.Fatal(err)
	}
	// Drop it from cache so the partial write must re-read from disk.
	r.cache.Invalidate(2)
	if err := r.cache.WriteBlock(2, []byte{0x22, 0x22}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if err := r.cache.ReadBlock(2, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, []byte{0x22, 0x22, 0x11, 0x11}) {
		t.Fatalf("partial write result %x", buf)
	}
}

func TestOutOfRange(t *testing.T) {
	r := newRig(t, 1<<20)
	if err := r.cache.ReadBlock(r.cache.Blocks(), make([]byte, 4096)); !errors.Is(err, ErrBadBlock) {
		t.Error("read past end accepted")
	}
	if err := r.cache.WriteBlock(-1, blockOf(0)); !errors.Is(err, ErrBadBlock) {
		t.Error("negative block accepted")
	}
}
