package storman

import (
	"bytes"
	"testing"
)

// Regression: truncating a flash-resident block is pure bookkeeping —
// nothing is written to flash — so a power failure must revert the block
// to its persisted length. The old code clamped flashSize in memory,
// making the truncation appear durable when it never was.
func TestTruncateFlashResidentRevertsOnPowerFail(t *testing.T) {
	r := newRig(t, 1<<20, 0)
	key := Key{Object: 1, Block: 0}
	if err := r.m.WriteBlockAt(key, 0, blockOf(0x66, 300)); err != nil {
		t.Fatal(err)
	}
	if err := r.m.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := r.m.TruncateBlock(key, 64); err != nil {
		t.Fatal(err)
	}
	if got := r.m.BlockSize(key); got != 64 {
		t.Fatalf("live size after truncate %d, want 64", got)
	}

	r.dram.PowerFail()
	r.m.PowerFailRecover()
	r.dram.Restore()

	// Flash still holds all 300 bytes; the truncation was never persisted.
	if got := r.m.BlockSize(key); got != 300 {
		t.Fatalf("recovered size %d, want the persisted 300", got)
	}
	buf := make([]byte, 4096)
	n, err := readBlock(r.m, key, buf)
	if err != nil || n != 300 {
		t.Fatalf("recovered read n=%d err=%v", n, err)
	}
	if !bytes.Equal(buf[:300], blockOf(0x66, 300)) {
		t.Fatal("recovered content mismatch")
	}
	if err := r.m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Regression: truncating a block that is dirty in DRAM over an older
// flash copy must leave the flash copy's bookkeeping alone — after a
// power failure the full persisted version comes back, not a version
// clamped to the lost in-DRAM truncation.
func TestTruncateDirtyBlockKeepsPersistedSize(t *testing.T) {
	r := newRig(t, 1<<20, 0)
	key := Key{Object: 1, Block: 0}
	if err := r.m.WriteBlockAt(key, 0, blockOf(0x11, 300)); err != nil {
		t.Fatal(err)
	}
	if err := r.m.Sync(); err != nil {
		t.Fatal(err)
	}
	// Copy-on-write back into DRAM, then truncate the dirty version.
	if err := r.m.WriteBlockAt(key, 0, blockOf(0x22, 200)); err != nil {
		t.Fatal(err)
	}
	if !r.m.InDRAM(key) {
		t.Fatal("overwrite did not come back to DRAM")
	}
	if err := r.m.TruncateBlock(key, 64); err != nil {
		t.Fatal(err)
	}

	r.dram.PowerFail()
	r.m.PowerFailRecover()
	r.dram.Restore()

	// The dirty overwrite and its truncation died with DRAM; the flushed
	// 300-byte version is what survives.
	if got := r.m.BlockSize(key); got != 300 {
		t.Fatalf("recovered size %d, want the persisted 300", got)
	}
	buf := make([]byte, 4096)
	n, err := readBlock(r.m, key, buf)
	if err != nil || n != 300 {
		t.Fatalf("recovered read n=%d err=%v", n, err)
	}
	if !bytes.Equal(buf[:300], blockOf(0x11, 300)) {
		t.Fatal("recovered content is not the flushed version")
	}
	if err := r.m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
