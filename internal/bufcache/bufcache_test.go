package bufcache

import (
	"bytes"
	"errors"
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

func newRig(t *testing.T, cacheBytes int64, delay sim.Duration) *rig {
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
	c, err := New(Config{BlockBytes: 4096, DRAMBase: 0, DRAMBytes: cacheBytes, WriteBackDelay: delay}, clock, dr, dk)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{clock: clock, meter: meter, dram: dr, disk: dk, cache: c}
}

func blockOf(b byte) []byte { return bytes.Repeat([]byte{b}, 4096) }

func TestValidation(t *testing.T) {
	r := newRig(t, 1<<20, 0)
	if _, err := New(Config{BlockBytes: 0}, r.clock, r.dram, r.disk); err == nil {
		t.Error("zero block size accepted")
	}
	if _, err := New(Config{BlockBytes: 4096, DRAMBase: 1 << 40}, r.clock, r.dram, r.disk); err == nil {
		t.Error("region outside DRAM accepted")
	}
}

func TestWriteReadThroughCache(t *testing.T) {
	r := newRig(t, 1<<20, 0)
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
	if r.disk.Peek(5*4096) == 0xAB {
		t.Fatal("write-back cache wrote through")
	}
	if err := r.cache.Sync(); err != nil {
		t.Fatal(err)
	}
	if r.disk.Peek(5*4096) != 0xAB {
		t.Fatal("sync did not reach disk")
	}
}

func TestWriteThrough(t *testing.T) {
	r := newRig(t, 1<<20, 0)
	if err := r.cache.WriteBlockThrough(3, blockOf(0x77)); err != nil {
		t.Fatal(err)
	}
	if r.disk.Peek(3*4096) != 0x77 {
		t.Fatal("write-through did not reach disk")
	}
	if r.cache.Stats().WriteThroughs != 1 {
		t.Fatal("write-through not counted")
	}
}

func TestHitAvoidsDisk(t *testing.T) {
	r := newRig(t, 1<<20, 0)
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
	s := r.cache.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestEvictionWritesDirtyBack(t *testing.T) {
	// Cache of 2 blocks.
	r := newRig(t, 2*4096, 0)
	if err := r.cache.WriteBlock(0, blockOf(1)); err != nil {
		t.Fatal(err)
	}
	if err := r.cache.WriteBlock(1, blockOf(2)); err != nil {
		t.Fatal(err)
	}
	if err := r.cache.WriteBlock(2, blockOf(3)); err != nil { // evicts block 0
		t.Fatal(err)
	}
	if r.disk.Peek(0) != 1 {
		t.Fatal("evicted dirty block not written back")
	}
	if r.cache.Stats().Evictions != 1 {
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
	r := newRig(t, 1<<20, 30*sim.Second)
	if err := r.cache.WriteBlock(7, blockOf(9)); err != nil {
		t.Fatal(err)
	}
	if err := r.cache.Tick(); err != nil {
		t.Fatal(err)
	}
	if r.disk.Peek(7*4096) == 9 {
		t.Fatal("young block flushed early")
	}
	r.clock.Advance(31 * sim.Second)
	if err := r.cache.Tick(); err != nil {
		t.Fatal(err)
	}
	if r.disk.Peek(7*4096) != 9 {
		t.Fatal("aged block not flushed")
	}
}

func TestInvalidateDropsWithoutFlush(t *testing.T) {
	r := newRig(t, 1<<20, 0)
	if err := r.cache.WriteBlock(4, blockOf(0xEE)); err != nil {
		t.Fatal(err)
	}
	r.cache.Invalidate(4)
	if err := r.cache.Sync(); err != nil {
		t.Fatal(err)
	}
	if r.disk.Peek(4*4096) == 0xEE {
		t.Fatal("invalidated block reached disk")
	}
}

func TestPartialWritePreservesRest(t *testing.T) {
	r := newRig(t, 1<<20, 0)
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
	r := newRig(t, 1<<20, 0)
	if err := r.cache.ReadBlock(r.cache.Blocks(), make([]byte, 4096)); !errors.Is(err, ErrBadBlock) {
		t.Error("read past end accepted")
	}
	if err := r.cache.WriteBlock(-1, blockOf(0)); !errors.Is(err, ErrBadBlock) {
		t.Error("negative block accepted")
	}
}
