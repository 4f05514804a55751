package storman

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"testing/quick"

	"ssmobile/internal/device"
	"ssmobile/internal/dram"
	"ssmobile/internal/engine"
	"ssmobile/internal/flash"
	"ssmobile/internal/ftl"
	"ssmobile/internal/obs"
	"ssmobile/internal/sim"
)

type rig struct {
	clock *sim.Clock
	meter *sim.EnergyMeter
	dram  *dram.Device
	flash *flash.Device
	fl    *ftl.FTL
	m     *Manager
}

func newRig(t testing.TB, dramBufBytes int64, delay sim.Duration) *rig {
	t.Helper()
	return newObservedRig(t, dramBufBytes, delay, nil)
}

// newObservedRig is newRig with every layer reporting to o.
func newObservedRig(t testing.TB, dramBufBytes int64, delay sim.Duration, o *obs.Observer) *rig {
	t.Helper()
	clock := sim.NewClock()
	meter := sim.NewEnergyMeter()
	dr, err := dram.New(dram.Config{CapacityBytes: 4 << 20, Params: device.NECDram, Obs: o}, clock, meter)
	if err != nil {
		t.Fatal(err)
	}
	params := device.IntelFlash
	params.EraseLatencyNs = 1e6
	fd, err := flash.New(flash.Config{Banks: 2, BlocksPerBank: 64, BlockBytes: 16 * 1024, Params: params, Obs: o}, clock, meter)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := ftl.New(fd, clock, ftl.Config{
		PageBytes:     4096,
		ReserveBlocks: 3,
		Policy:        ftl.PolicyCostBenefit,
		HotCold:       true,
		Obs:           o,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{
		BlockBytes:     4096,
		DRAMBase:       1 << 20,
		DRAMBytes:      dramBufBytes,
		WriteBackDelay: delay,
		Obs:            o,
	}, clock, dr, fl)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{clock: clock, meter: meter, dram: dr, flash: fd, fl: fl, m: m}
}

func blockOf(b byte, n int) []byte { return bytes.Repeat([]byte{b}, n) }

func TestNewValidation(t *testing.T) {
	r := newRig(t, 1<<20, 0)
	if _, err := New(Config{BlockBytes: 0}, r.clock, r.dram, r.fl); err == nil {
		t.Error("zero block size accepted")
	}
	if _, err := New(Config{BlockBytes: 8192}, r.clock, r.dram, r.fl); err == nil {
		t.Error("block size != ftl page size accepted")
	}
	if _, err := New(Config{BlockBytes: 4096, DRAMBase: 1 << 30, DRAMBytes: 4096}, r.clock, r.dram, r.fl); err == nil {
		t.Error("region outside DRAM accepted")
	}
}

func TestWriteReadDRAMResident(t *testing.T) {
	r := newRig(t, 1<<20, 0)
	key := Key{Object: 1, Block: 0}
	want := blockOf(0x42, 4096)
	if err := r.m.WriteBlockAt(key, 0, want); err != nil {
		t.Fatal(err)
	}
	if !r.m.InDRAM(key) {
		t.Fatal("fresh write should live in DRAM")
	}
	got := make([]byte, 4096)
	n, err := readBlock(r.m, key, got)
	if err != nil || n != 4096 {
		t.Fatalf("read n=%d err=%v", n, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("read mismatch")
	}
	if s := r.m.Stats(); s.DRAMReads != 1 || s.FlashReads != 0 {
		t.Fatalf("read placement stats %+v", s)
	}
}

func TestUnknownBlockReadsEmpty(t *testing.T) {
	r := newRig(t, 1<<20, 0)
	n, err := readBlock(r.m, Key{9, 9}, make([]byte, 4096))
	if err != nil || n != 0 {
		t.Fatalf("unknown block n=%d err=%v", n, err)
	}
	if r.m.BlockSize(Key{9, 9}) != 0 {
		t.Fatal("unknown block has size")
	}
}

func TestSyncMigratesToFlash(t *testing.T) {
	r := newRig(t, 1<<20, 0)
	key := Key{Object: 1, Block: 3}
	want := blockOf(0x17, 4096)
	if err := r.m.WriteBlockAt(key, 0, want); err != nil {
		t.Fatal(err)
	}
	if err := r.m.Sync(); err != nil {
		t.Fatal(err)
	}
	if r.m.InDRAM(key) {
		t.Fatal("block still in DRAM after Sync")
	}
	got := make([]byte, 4096)
	if _, err := readBlock(r.m, key, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("flash copy mismatch")
	}
	if s := r.m.Stats(); s.FlashReads != 1 {
		t.Fatalf("flash read not counted: %+v", s)
	}
}

func TestReadDoesNotPromote(t *testing.T) {
	// The paper: read-only data is accessed directly from flash, no copy.
	r := newRig(t, 1<<20, 0)
	key := Key{Object: 1, Block: 0}
	if err := r.m.WriteBlockAt(key, 0, blockOf(1, 4096)); err != nil {
		t.Fatal(err)
	}
	if err := r.m.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := readBlock(r.m, key, make([]byte, 4096)); err != nil {
			t.Fatal(err)
		}
	}
	if r.m.InDRAM(key) {
		t.Fatal("reads must not copy flash data into DRAM")
	}
	if free := r.m.DRAMPagesFree(); free != r.m.Stats().DRAMPagesTotal {
		t.Fatalf("reads consumed DRAM pages: %d free of %d", free, r.m.Stats().DRAMPagesTotal)
	}
}

func TestCopyOnWriteFromFlash(t *testing.T) {
	r := newRig(t, 1<<20, 0)
	key := Key{Object: 1, Block: 0}
	if err := r.m.WriteBlockAt(key, 0, blockOf(0xAA, 4096)); err != nil {
		t.Fatal(err)
	}
	if err := r.m.Sync(); err != nil {
		t.Fatal(err)
	}
	freeLPNsBefore := r.m.FlashPagesFree()
	// Partial overwrite: the rest of the block must come from flash.
	if err := r.m.WriteBlockAt(key, 0, blockOf(0xBB, 100)); err != nil {
		t.Fatal(err)
	}
	if !r.m.InDRAM(key) {
		t.Fatal("written block should have migrated to DRAM")
	}
	if s := r.m.Stats(); s.CopyOnWrites != 1 {
		t.Fatalf("cow count %+v", s)
	}
	// The stale flash copy is retained until the next flush, so the free
	// pool is unchanged: that copy is the power-failure fallback.
	if r.m.FlashPagesFree() != freeLPNsBefore {
		t.Fatal("cow should keep the stale flash copy until flush")
	}
	got := make([]byte, 4096)
	if _, err := readBlock(r.m, key, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xBB || got[99] != 0xBB || got[100] != 0xAA || got[4095] != 0xAA {
		t.Fatalf("cow merge wrong: %x %x %x %x", got[0], got[99], got[100], got[4095])
	}
}

func TestOverwriteAbsorption(t *testing.T) {
	r := newRig(t, 1<<20, 0)
	key := Key{Object: 1, Block: 0}
	for i := 0; i < 20; i++ {
		if err := r.m.WriteBlockAt(key, 0, blockOf(byte(i), 4096)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.m.Sync(); err != nil {
		t.Fatal(err)
	}
	s := r.m.Stats()
	if s.FlushedBytes != 4096 {
		t.Fatalf("flushed %d, want one block", s.FlushedBytes)
	}
	if got := s.Reduction(); got < 0.94 {
		t.Fatalf("reduction %.2f, want 19/20", got)
	}
}

// An in-DRAM overwrite absorbs the incoming bytes, not the resident
// block's size: a 512B overwrite of a 4KB block is 512 bytes that never
// reach flash, and crediting 4096 lets absorbed exceed host-written.
func TestOverwriteAbsorptionCreditsIncomingBytes(t *testing.T) {
	r := newRig(t, 1<<20, 0)
	key := Key{Object: 1, Block: 0}
	if err := r.m.WriteBlockAt(key, 0, blockOf(1, 4096)); err != nil {
		t.Fatal(err)
	}
	if err := r.m.WriteBlockAt(key, 0, blockOf(2, 512)); err != nil {
		t.Fatal(err)
	}
	s := r.m.Stats()
	if s.OverwriteAbsorbedBytes != 512 {
		t.Fatalf("absorbed %d, want the 512 incoming bytes", s.OverwriteAbsorbedBytes)
	}
	if s.HostBytesWritten != 4096+512 {
		t.Fatalf("host bytes %d", s.HostBytesWritten)
	}
}

func TestDeleteAbsorption(t *testing.T) {
	r := newRig(t, 1<<20, 0)
	for blk := int64(0); blk < 8; blk++ {
		if err := r.m.WriteBlockAt(Key{Object: 5, Block: blk}, 0, blockOf(1, 4096)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.m.DeleteObject(5); err != nil {
		t.Fatal(err)
	}
	if err := r.m.Sync(); err != nil {
		t.Fatal(err)
	}
	s := r.m.Stats()
	if s.FlushedBytes != 0 {
		t.Fatalf("deleted data reached flash: %d bytes", s.FlushedBytes)
	}
	if s.DeleteAbsorbedBytes != 8*4096 {
		t.Fatalf("delete absorbed %d", s.DeleteAbsorbedBytes)
	}
	if r.m.DRAMPagesFree() != s.DRAMPagesTotal {
		t.Fatal("DRAM pages leaked on delete")
	}
}

func TestDeleteFlashResident(t *testing.T) {
	r := newRig(t, 1<<20, 0)
	key := Key{Object: 3, Block: 0}
	if err := r.m.WriteBlockAt(key, 0, blockOf(9, 4096)); err != nil {
		t.Fatal(err)
	}
	if err := r.m.Sync(); err != nil {
		t.Fatal(err)
	}
	before := r.m.FlashPagesFree()
	if err := r.m.DeleteObject(3); err != nil {
		t.Fatal(err)
	}
	if r.m.FlashPagesFree() != before+1 {
		t.Fatal("flash page not reclaimed on delete")
	}
	if n, _ := readBlock(r.m, key, make([]byte, 4096)); n != 0 {
		t.Fatal("deleted block still readable")
	}
}

func TestEvictionUnderDRAMPressure(t *testing.T) {
	// Room for 4 pages only.
	r := newRig(t, 4*4096, 0)
	for blk := int64(0); blk < 10; blk++ {
		if err := r.m.WriteBlockAt(Key{Object: 1, Block: blk}, 0, blockOf(byte(blk), 4096)); err != nil {
			t.Fatal(err)
		}
	}
	s := r.m.Stats()
	if s.Evictions == 0 {
		t.Fatal("no evictions under pressure")
	}
	// All blocks still readable, early ones from flash.
	buf := make([]byte, 4096)
	for blk := int64(0); blk < 10; blk++ {
		n, err := readBlock(r.m, Key{Object: 1, Block: blk}, buf)
		if err != nil || n != 4096 {
			t.Fatalf("block %d: n=%d err=%v", blk, n, err)
		}
		if buf[0] != byte(blk) {
			t.Fatalf("block %d corrupted", blk)
		}
	}
	if !r.m.InDRAM(Key{Object: 1, Block: 9}) {
		t.Fatal("most recent block should still be in DRAM")
	}
	if r.m.InDRAM(Key{Object: 1, Block: 0}) {
		t.Fatal("oldest block should have been evicted to flash")
	}
}

func TestTickMigratesAgedBlocks(t *testing.T) {
	r := newRig(t, 1<<20, 30*sim.Second)
	if err := r.m.WriteBlockAt(Key{1, 0}, 0, blockOf(1, 4096)); err != nil {
		t.Fatal(err)
	}
	r.clock.Advance(10 * sim.Second)
	if err := r.m.WriteBlockAt(Key{1, 1}, 0, blockOf(2, 4096)); err != nil {
		t.Fatal(err)
	}
	r.clock.Advance(25 * sim.Second) // block 0: 35s, block 1: 25s
	if err := r.m.Tick(sim.Forever); err != nil {
		t.Fatal(err)
	}
	if r.m.InDRAM(Key{1, 0}) {
		t.Fatal("aged block not migrated")
	}
	if !r.m.InDRAM(Key{1, 1}) {
		t.Fatal("young block migrated early")
	}
	if r.m.Stats().DaemonFlushes != 1 {
		t.Fatalf("daemon flushes %d", r.m.Stats().DaemonFlushes)
	}

	// The daemon says when it next has work: the instant the young block
	// comes of age, and not a nanosecond before.
	due := r.m.NextWriteBack()
	r.clock.AdvanceTo(due - 1)
	if err := r.m.Tick(sim.Forever); err != nil {
		t.Fatal(err)
	}
	if !r.m.InDRAM(Key{1, 1}) {
		t.Fatalf("block migrated at %v, before it was due at %v", r.clock.Now(), due)
	}
	r.clock.AdvanceTo(due)
	if err := r.m.Tick(sim.Forever); err != nil {
		t.Fatal(err)
	}
	if r.m.InDRAM(Key{1, 1}) {
		t.Fatalf("block still in DRAM at %v, when it was due", due)
	}
	if next := r.m.NextWriteBack(); next != sim.Forever {
		t.Fatalf("nothing dirty, next write-back at %v", next)
	}
}

func TestOversizeRejected(t *testing.T) {
	r := newRig(t, 1<<20, 0)
	for _, w := range []struct{ off, n int }{{0, 8192}, {-1, 10}, {4000, 97}} {
		if err := r.m.WriteBlockAt(Key{1, 0}, w.off, make([]byte, w.n)); !errors.Is(err, ErrBadSize) {
			t.Errorf("write of %d bytes at %d: err %v, want ErrBadSize", w.n, w.off, err)
		}
	}
	if r.m.BlockSize(Key{1, 0}) != 0 {
		t.Fatal("a rejected write stored a block")
	}
}

// TestWriteBlockAt holds the write path to its extent over each place a
// block can live: the bytes read back are the old prefix, a zero hole
// from the old size up to the offset, the new bytes and the old tail; and
// flash is read once for a write that leaves some of a flash-resident
// block standing, never otherwise.
func TestWriteBlockAt(t *testing.T) {
	const oldSize = 2000
	writes := []struct {
		name   string
		off, n int
	}{
		{"covering", 0, 3000},
		{"inside", 100, 200},
		{"straddling-end", 1500, 1000},
		{"past-size", 2500, 500},
	}
	for _, where := range []string{"dram", "flash", "absent"} {
		for _, w := range writes {
			t.Run(where+"/"+w.name, func(t *testing.T) {
				r := newRig(t, 1<<20, 0)
				key := Key{Object: 1, Block: 0}
				var old []byte
				if where != "absent" {
					old = blockOf(0xAA, oldSize)
					if err := r.m.WriteBlockAt(key, 0, old); err != nil {
						t.Fatal(err)
					}
				}
				if where == "flash" {
					if err := r.m.Sync(); err != nil {
						t.Fatal(err)
					}
				}
				reads := r.fl.Stats().HostReads
				if err := r.m.WriteBlockAt(key, w.off, blockOf(0x55, w.n)); err != nil {
					t.Fatal(err)
				}
				wantReads := int64(0)
				if where == "flash" && (w.off > 0 || w.off+w.n < oldSize) {
					wantReads = 1
				}
				if got := r.fl.Stats().HostReads - reads; got != wantReads {
					t.Errorf("engine reads %d, want %d", got, wantReads)
				}
				want := make([]byte, max(len(old), w.off+w.n))
				copy(want, old)
				copy(want[w.off:], blockOf(0x55, w.n))
				if got := r.m.BlockSize(key); got != len(want) {
					t.Errorf("size %d, want %d", got, len(want))
				}
				buf := make([]byte, 4096)
				n, err := readBlock(r.m, key, buf)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf[:n], want) {
					t.Errorf("read back %d bytes that differ from the %d expected", n, len(want))
				}
			})
		}
	}
}

// TestWriteBlockAtZeroesReusedPage: a DRAM page freed by one block and
// reused by another still holds the first block's bytes, and a write past
// the new block's size must not expose them in the hole.
func TestWriteBlockAtZeroesReusedPage(t *testing.T) {
	r := newRig(t, 1<<20, 0)
	a, b, c := Key{1, 0}, Key{2, 0}, Key{3, 0}
	check := func(key Key, want []byte) {
		t.Helper()
		buf := make([]byte, 4096)
		n, err := readBlock(r.m, key, buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf[:n], want) {
			t.Fatalf("block %+v: the hole holds stale bytes", key)
		}
	}
	if err := r.m.WriteBlockAt(a, 0, blockOf(0xFF, 4096)); err != nil {
		t.Fatal(err)
	}
	if err := r.m.DeleteBlock(a); err != nil {
		t.Fatal(err)
	}
	if err := r.m.WriteBlockAt(b, 0, blockOf(0x11, 100)); err != nil {
		t.Fatal(err)
	}
	if err := r.m.WriteBlockAt(b, 1000, blockOf(0x22, 10)); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 1010)
	copy(want, blockOf(0x11, 100))
	copy(want[1000:], blockOf(0x22, 10))
	check(b, want)

	// A fresh block written at an offset on a reused page.
	if err := r.m.DeleteBlock(b); err != nil {
		t.Fatal(err)
	}
	if err := r.m.WriteBlockAt(c, 3000, blockOf(0x33, 5)); err != nil {
		t.Fatal(err)
	}
	want = make([]byte, 3005)
	copy(want[3000:], blockOf(0x33, 5))
	check(c, want)
}

func TestEnergyAndTimeCharged(t *testing.T) {
	r := newRig(t, 1<<20, 0)
	before := r.clock.Now()
	if err := r.m.WriteBlockAt(Key{1, 0}, 0, blockOf(1, 4096)); err != nil {
		t.Fatal(err)
	}
	if r.clock.Now() == before {
		t.Fatal("write charged no time")
	}
	if r.meter.Category("dram") <= 0 {
		t.Fatal("write charged no DRAM energy")
	}
	if err := r.m.Sync(); err != nil {
		t.Fatal(err)
	}
	if r.meter.Category("flash") <= 0 {
		t.Fatal("migration charged no flash energy")
	}
}

func TestSyncObjectFlushesOnlyThatObject(t *testing.T) {
	r := newRig(t, 1<<20, 0)
	if err := r.m.WriteBlockAt(Key{1, 0}, 0, blockOf(1, 4096)); err != nil {
		t.Fatal(err)
	}
	if err := r.m.WriteBlockAt(Key{2, 0}, 0, blockOf(2, 4096)); err != nil {
		t.Fatal(err)
	}
	if err := r.m.SyncObject(1); err != nil {
		t.Fatal(err)
	}
	if r.m.InDRAM(Key{1, 0}) {
		t.Fatal("synced object still in DRAM")
	}
	if !r.m.InDRAM(Key{2, 0}) {
		t.Fatal("unrelated object was flushed")
	}
}

// writeLog is an engine that records the key of every page the manager
// writes, in order.
type writeLog struct {
	engine.Engine
	keys []Key
}

func (w *writeLog) WritePageTagged(lpn int64, data []byte, tag engine.Tag) error {
	key, _ := decodeTag(tag)
	w.keys = append(w.keys, key)
	return w.Engine.WritePageTagged(lpn, data, tag)
}

// TestSyncObjectMigratesInIndexOrder pins SyncObject's order and scope as
// the engine sees them: the object's DRAM blocks in ascending index,
// whatever order they were dirtied in, and nothing else — not its
// flash-resident block, not another object's dirty one.
func TestSyncObjectMigratesInIndexOrder(t *testing.T) {
	r := newRig(t, 1<<20, 0)
	log := &writeLog{Engine: r.fl}
	m, err := New(r.m.Config(), r.clock, r.dram, log)
	if err != nil {
		t.Fatal(err)
	}
	write := func(key Key) {
		t.Helper()
		if err := m.WriteBlockAt(key, 0, blockOf(byte(key.Block), 4096)); err != nil {
			t.Fatal(err)
		}
	}
	write(Key{1, 2})
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	for _, blk := range []int64{5, 1, 3} {
		write(Key{1, blk})
	}
	write(Key{2, 0})
	log.keys = nil
	if err := m.SyncObject(1); err != nil {
		t.Fatal(err)
	}
	if want := []Key{{1, 1}, {1, 3}, {1, 5}}; !slices.Equal(log.keys, want) {
		t.Fatalf("SyncObject(1) wrote %v; want %v", log.keys, want)
	}
}

func TestPowerFailLosesOnlyUnflushedData(t *testing.T) {
	r := newRig(t, 1<<20, 0)
	// Block A: flushed, then overwritten in DRAM (CoW) — reverts to v1.
	a := Key{1, 0}
	if err := r.m.WriteBlockAt(a, 0, blockOf(0x11, 4096)); err != nil {
		t.Fatal(err)
	}
	if err := r.m.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := r.m.WriteBlockAt(a, 0, blockOf(0x22, 4096)); err != nil {
		t.Fatal(err)
	}
	// Block B: never flushed — disappears entirely.
	b := Key{2, 0}
	if err := r.m.WriteBlockAt(b, 0, blockOf(0x33, 2048)); err != nil {
		t.Fatal(err)
	}

	r.dram.PowerFail()
	lost := r.m.PowerFailRecover()
	r.dram.Restore()

	if lost != 4096+2048 {
		t.Fatalf("lost %d bytes, want %d", lost, 4096+2048)
	}
	buf := make([]byte, 4096)
	n, err := readBlock(r.m, a, buf)
	if err != nil || n != 4096 {
		t.Fatalf("block A after recovery: n=%d err=%v", n, err)
	}
	if buf[0] != 0x11 {
		t.Fatalf("block A should revert to flushed version, got %x", buf[0])
	}
	if n, _ := readBlock(r.m, b, buf); n != 0 {
		t.Fatal("unflushed block survived a power failure")
	}
	if r.m.DRAMPagesFree() != r.m.Stats().DRAMPagesTotal {
		t.Fatal("DRAM pool not rebuilt after power failure")
	}
	// The manager must be fully usable afterwards.
	if err := r.m.WriteBlockAt(b, 0, blockOf(0x44, 4096)); err != nil {
		t.Fatal(err)
	}
	if err := r.m.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestTruncateBlock(t *testing.T) {
	r := newRig(t, 1<<20, 0)
	key := Key{Object: 1, Block: 0}
	if err := r.m.WriteBlockAt(key, 0, blockOf(0x55, 4096)); err != nil {
		t.Fatal(err)
	}
	if err := r.m.TruncateBlock(key, 100); err != nil {
		t.Fatal(err)
	}
	if got := r.m.BlockSize(key); got != 100 {
		t.Fatalf("size after truncate %d", got)
	}
	// Growing truncate is a no-op.
	if err := r.m.TruncateBlock(key, 5000); err != nil {
		t.Fatal(err)
	}
	if got := r.m.BlockSize(key); got != 100 {
		t.Fatalf("grow-truncate changed size to %d", got)
	}
	// Truncate to zero drops the block entirely.
	if err := r.m.TruncateBlock(key, 0); err != nil {
		t.Fatal(err)
	}
	if r.m.BlockSize(key) != 0 {
		t.Fatal("zero truncate kept the block")
	}
	// Truncating missing blocks is fine.
	if err := r.m.TruncateBlock(Key{9, 9}, 10); err != nil {
		t.Fatal(err)
	}
}

func TestTruncateFlashResidentBlockShrinksView(t *testing.T) {
	r := newRig(t, 1<<20, 0)
	key := Key{Object: 1, Block: 0}
	if err := r.m.WriteBlockAt(key, 0, blockOf(0x66, 4096)); err != nil {
		t.Fatal(err)
	}
	if err := r.m.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := r.m.TruncateBlock(key, 64); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	n, err := readBlock(r.m, key, buf)
	if err != nil || n != 64 {
		t.Fatalf("n=%d err=%v", n, err)
	}
}

func TestObjectsAndDeleteBlock(t *testing.T) {
	r := newRig(t, 1<<20, 0)
	if err := r.m.WriteBlockAt(Key{3, 0}, 0, blockOf(1, 100)); err != nil {
		t.Fatal(err)
	}
	if err := r.m.WriteBlockAt(Key{5, 0}, 0, blockOf(2, 100)); err != nil {
		t.Fatal(err)
	}
	objs := r.m.Objects()
	if len(objs) != 2 {
		t.Fatalf("objects %v", objs)
	}
	if err := r.m.DeleteBlock(Key{3, 0}); err != nil {
		t.Fatal(err)
	}
	if len(r.m.Objects()) != 1 {
		t.Fatal("DeleteBlock did not drop the object's last block")
	}
	if r.m.BlockBytes() != 4096 {
		t.Fatal("BlockBytes wrong")
	}
	if (Stats{}).Reduction() != 0 {
		t.Fatal("empty Reduction should be 0")
	}
}

// Property: arbitrary single-object write/delete/sync sequences match a
// map model.
func TestManagerModelProperty(t *testing.T) {
	type op struct {
		Obj    uint8
		Blk    uint8
		Val    byte
		Action uint8 // 0,1 write; 2 delete object; 3 sync; 4 tick+advance
	}
	f := func(ops []op) bool {
		r := newRig(t, 8*4096, 10*sim.Second)
		model := map[Key][]byte{}
		for _, o := range ops {
			key := Key{Object: uint64(o.Obj % 3), Block: int64(o.Blk % 8)}
			switch o.Action % 5 {
			case 0, 1:
				data := blockOf(o.Val, 4096)
				if err := r.m.WriteBlockAt(key, 0, data); err != nil {
					return false
				}
				model[key] = data
			case 2:
				if err := r.m.DeleteObject(key.Object); err != nil {
					return false
				}
				for k := range model {
					if k.Object == key.Object {
						delete(model, k)
					}
				}
			case 3:
				if err := r.m.Sync(); err != nil {
					return false
				}
			case 4:
				r.clock.Advance(7 * sim.Second)
				if err := r.m.Tick(sim.Forever); err != nil {
					return false
				}
			}
		}
		buf := make([]byte, 4096)
		for k, want := range model {
			n, err := readBlock(r.m, k, buf)
			if err != nil || n != len(want) {
				return false
			}
			if !bytes.Equal(buf[:n], want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
