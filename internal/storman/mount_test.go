package storman

import (
	"bytes"
	"testing"

	"ssmobile/internal/device"
	"ssmobile/internal/dram"
	"ssmobile/internal/engine/blocks"
	"ssmobile/internal/flash"
	"ssmobile/internal/ftl"
	"ssmobile/internal/sim"
)

// newOOBRig builds a stack whose translation layer persists its mapping,
// so the manager can be remounted from the device after power loss.
func newOOBRig(t testing.TB) *rig {
	t.Helper()
	clock := sim.NewClock()
	meter := sim.NewEnergyMeter()
	dr, err := dram.New(dram.Config{CapacityBytes: 4 << 20, Params: device.NECDram}, clock, meter)
	if err != nil {
		t.Fatal(err)
	}
	params := device.IntelFlash
	params.EraseLatencyNs = 1e6
	fd, err := flash.New(flash.Config{
		Banks: 2, BlocksPerBank: 64, BlockBytes: 16 * 1024, Params: params,
		SpareUnitBytes: 4096, SpareBytes: blocks.PageRecordBytes,
	}, clock, meter)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := ftl.New(fd, clock, oobFTLConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{
		BlockBytes: 4096,
		DRAMBase:   1 << 20, DRAMBytes: 1 << 20,
		WriteBackDelay: 30 * sim.Second,
	}, clock, dr, fl)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{clock: clock, meter: meter, dram: dr, flash: fd, fl: fl, m: m}
}

func oobFTLConfig() ftl.Config {
	return ftl.Config{
		PageBytes: 4096, Policy: ftl.PolicyCostBenefit, HotCold: true,
		PersistMapping: true,
	}
}

func TestMountRequiresPersistence(t *testing.T) {
	r := newRig(t, 1<<20, 0) // plain rig, no OOB
	if _, err := Mount(r.m.cfg, r.clock, r.dram, r.fl); err == nil {
		t.Fatal("Mount accepted a non-persistent translation layer")
	}
}

func TestTagRoundTrip(t *testing.T) {
	for _, key := range []Key{{0, 0}, {1, 2}, {1 << 60, 1 << 50}, {42, 0}} {
		got, ok := decodeTag(encodeTag(key))
		if !ok || got != key {
			t.Errorf("tag round trip of %+v → %+v %v", key, got, ok)
		}
	}
	if _, ok := decodeTag(ftl.Tag{}); ok {
		t.Error("zero tag decoded as valid")
	}
}

func TestMountRebuildsFlashState(t *testing.T) {
	r := newOOBRig(t)
	// Flush a set of blocks to flash, leave others dirty in DRAM.
	for blk := int64(0); blk < 10; blk++ {
		if err := r.m.WriteBlockAt(Key{Object: 7, Block: blk}, 0, blockOf(byte(blk), 4096)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.m.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := r.m.WriteBlockAt(Key{Object: 8, Block: 0}, 0, blockOf(0xDD, 4096)); err != nil {
		t.Fatal(err) // never flushed: must be gone after the failure
	}

	// Power failure: DRAM and ALL Go-level state lost. Remount the
	// translation layer from the device scan, then the manager over it.
	r.dram.PowerFail()
	r.dram.Restore()
	fl2, err := ftl.Mount(r.flash, r.clock, oobFTLConfig())
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Mount(r.m.cfg, r.clock, r.dram, fl2)
	if err != nil {
		t.Fatal(err)
	}

	buf := make([]byte, 4096)
	for blk := int64(0); blk < 10; blk++ {
		n, err := readBlock(m2, Key{Object: 7, Block: blk}, buf)
		if err != nil || n != 4096 {
			t.Fatalf("block %d: n=%d err=%v", blk, n, err)
		}
		if buf[0] != byte(blk) {
			t.Fatalf("block %d corrupted across remount: %x", blk, buf[0])
		}
	}
	if n, _ := readBlock(m2, Key{Object: 8, Block: 0}, buf); n != 0 {
		t.Fatal("unflushed block survived remount")
	}
	// Accounting: free pool excludes the live pages.
	if m2.FlashPagesFree() != int(fl2.LogicalPages())-10 {
		t.Fatalf("free lpns %d, want %d", m2.FlashPagesFree(), fl2.LogicalPages()-10)
	}
	// Fully operational afterwards.
	if err := m2.WriteBlockAt(Key{Object: 9, Block: 0}, 0, blockOf(1, 4096)); err != nil {
		t.Fatal(err)
	}
	if err := m2.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestMountResolvesResurrectedDuplicates(t *testing.T) {
	r := newOOBRig(t)
	key := Key{Object: 3, Block: 0}
	// Version 1 reaches flash.
	if err := r.m.WriteBlockAt(key, 0, blockOf(0x01, 4096)); err != nil {
		t.Fatal(err)
	}
	if err := r.m.Sync(); err != nil {
		t.Fatal(err)
	}
	// Delete (trims the lpn — but trims are not persisted), then
	// re-create the same key and flush version 2 to a different lpn.
	if err := r.m.DeleteObject(3); err != nil {
		t.Fatal(err)
	}
	if err := r.m.WriteBlockAt(key, 0, blockOf(0x02, 4096)); err != nil {
		t.Fatal(err)
	}
	if err := r.m.Sync(); err != nil {
		t.Fatal(err)
	}

	r.dram.PowerFail()
	r.dram.Restore()
	fl2, err := ftl.Mount(r.flash, r.clock, oobFTLConfig())
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Mount(r.m.cfg, r.clock, r.dram, fl2)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	n, err := readBlock(m2, key, buf)
	if err != nil || n != 4096 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if buf[0] != 0x02 {
		t.Fatalf("older version won the duplicate resolution: %x", buf[0])
	}
}

func TestMountedManagerMatchesModelRecovery(t *testing.T) {
	// The model-level recovery (PowerFailRecover on surviving Go state)
	// and the honest device-scan remount must agree on every surviving
	// block.
	r := newOOBRig(t)
	var keys []Key
	for obj := uint64(1); obj <= 3; obj++ {
		for blk := int64(0); blk < 6; blk++ {
			key := Key{Object: obj, Block: blk}
			keys = append(keys, key)
			if err := r.m.WriteBlockAt(key, 0, blockOf(byte(obj*16+uint64(blk)), 4096)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := r.m.Sync(); err != nil {
		t.Fatal(err)
	}
	// Some post-sync churn.
	for blk := int64(0); blk < 3; blk++ {
		if err := r.m.WriteBlockAt(Key{Object: 2, Block: blk}, 0, blockOf(0xEE, 4096)); err != nil {
			t.Fatal(err)
		}
	}

	r.dram.PowerFail()
	// Path A: model recovery.
	r.m.PowerFailRecover()
	r.dram.Restore()
	// Path B: device-scan remount.
	fl2, err := ftl.Mount(r.flash, r.clock, oobFTLConfig())
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Mount(r.m.cfg, r.clock, r.dram, fl2)
	if err != nil {
		t.Fatal(err)
	}

	bufA := make([]byte, 4096)
	bufB := make([]byte, 4096)
	for _, key := range keys {
		nA, errA := readBlock(r.m, key, bufA)
		nB, errB := readBlock(m2, key, bufB)
		if errA != nil || errB != nil {
			t.Fatalf("%+v: %v %v", key, errA, errB)
		}
		if nA != nB || !bytes.Equal(bufA[:nA], bufB[:nB]) {
			t.Fatalf("%+v: model and remount disagree (%d vs %d bytes)", key, nA, nB)
		}
	}
}
