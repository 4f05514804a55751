package storman

import (
	"bytes"
	"testing"
)

// readBlock reads one stored block through ReadAt and reports its stored
// size (clamped to buf), the shape the block-at-a-time tests check.
func readBlock(m *Manager, key Key, buf []byte) (int, error) {
	n := min(m.BlockSize(key), len(buf))
	return n, m.ReadAt(key.Object, key.Block*int64(m.BlockBytes()), buf[:n])
}

// refReadBlock is the per-block read ReadAt replaced: the block's stored
// bytes from its DRAM page, or its whole page from flash, with the
// manager's counters charged once per block.
func refReadBlock(m *Manager, key Key, buf []byte) (int, error) {
	loc := m.lookup(key)
	if loc == nil {
		return 0, nil
	}
	n := min(loc.size, len(buf))
	if loc.inDRAM() {
		m.dramReads.Inc()
		if _, err := m.dram.Read(m.pageAddr(loc.dramPage), buf[:n]); err != nil {
			return 0, err
		}
	} else {
		m.flashReads.Inc()
		page := make([]byte, m.cfg.BlockBytes)
		if err := m.fl.ReadPage(loc.lpn, page); err != nil {
			return 0, err
		}
		copy(buf[:n], page)
	}
	m.hostRead.Add(int64(n))
	return n, nil
}

// refReadAt is the per-block walk an extent read used to be: every block
// read whole into a scratch block, holes and short blocks zero-filled,
// and the extent's part copied out.
func refReadAt(m *Manager, object uint64, off int64, buf []byte) error {
	bs := int64(m.cfg.BlockBytes)
	block := make([]byte, bs)
	for done := int64(0); done < int64(len(buf)); {
		blk, lo := (off+done)/bs, (off+done)%bs
		n := min(bs-lo, int64(len(buf))-done)
		got, err := refReadBlock(m, Key{Object: object, Block: blk}, block)
		if err != nil {
			return err
		}
		clear(block[got:])
		copy(buf[done:done+n], block[lo:lo+n])
		done += n
	}
	return nil
}

const shortBytes = 1000

// readLayoutRig builds one object whose blocks sit on every medium a read
// can meet: 0 flash, 1 DRAM, 2 flash, 3 absent, 4 DRAM, 5 flash and 6
// DRAM each truncated to shortBytes over a full page of older bytes.
func readLayoutRig(t *testing.T) *rig {
	t.Helper()
	r := newRig(t, 1<<20, 0)
	write := func(blk int64) {
		if err := r.m.WriteBlockAt(Key{Object: 1, Block: blk}, 0, blockOf(byte(0x10+blk), 4096)); err != nil {
			t.Fatal(err)
		}
	}
	for _, blk := range []int64{0, 2, 5} {
		write(blk)
	}
	if err := r.m.Sync(); err != nil {
		t.Fatal(err)
	}
	for _, blk := range []int64{1, 4, 6} {
		write(blk)
	}
	for _, blk := range []int64{5, 6} {
		if err := r.m.TruncateBlock(Key{Object: 1, Block: blk}, shortBytes); err != nil {
			t.Fatal(err)
		}
	}
	for blk, inDRAM := range []bool{false, true, false, false, true, false, true} {
		if blk != 3 && r.m.InDRAM(Key{Object: 1, Block: int64(blk)}) != inDRAM {
			t.Fatalf("block %d: in DRAM %v, layout wants %v", blk, !inDRAM, inDRAM)
		}
	}
	return r
}

// TestReadAtMatchesPerBlockWalk holds ReadAt to the per-block walk it
// replaced, over every medium and every way an extent can cut a block:
// the same bytes, the same reads_total and host_bytes_total, the same
// flash reads and the same simulated time.
func TestReadAtMatchesPerBlockWalk(t *testing.T) {
	const bs = 4096
	media := []struct {
		name        string
		full, short int64
	}{{"dram", 1, 6}, {"flash", 2, 5}, {"absent", 3, 3}}
	shapes := []struct {
		name string
		off  func(full, short int64) int64
		n    int
	}{
		{"whole block", func(full, _ int64) int64 { return full * bs }, bs},
		{"inside one block", func(full, _ int64) int64 { return full*bs + 100 }, 200},
		{"straddling both ends", func(full, _ int64) int64 { return full*bs - 100 }, bs + 200},
		{"short stored block", func(_, short int64) int64 { return short * bs }, bs},
		{"past the stored size", func(_, short int64) int64 { return short*bs + shortBytes + 100 }, 500},
	}
	type outcome struct {
		flashReads, dramReads, hostRead int64
		devReads, elapsed               int64
	}
	run := func(read func(m *Manager, off int64, buf []byte) error, off int64, n int) ([]byte, outcome) {
		r := readLayoutRig(t)
		before, devBefore, start := r.m.Stats(), r.flash.Stats().Reads, r.clock.Now()
		buf := bytes.Repeat([]byte{0xEE}, n)
		if err := read(r.m, off, buf); err != nil {
			t.Fatal(err)
		}
		after := r.m.Stats()
		return buf, outcome{
			flashReads: after.FlashReads - before.FlashReads,
			dramReads:  after.DRAMReads - before.DRAMReads,
			hostRead:   after.HostBytesRead - before.HostBytesRead,
			devReads:   r.flash.Stats().Reads - devBefore,
			elapsed:    int64(r.clock.Now() - start),
		}
	}
	for _, md := range media {
		for _, sh := range shapes {
			off := sh.off(md.full, md.short)
			gotData, got := run(func(m *Manager, off int64, buf []byte) error { return m.ReadAt(1, off, buf) }, off, sh.n)
			wantData, want := run(func(m *Manager, off int64, buf []byte) error { return refReadAt(m, 1, off, buf) }, off, sh.n)
			name := md.name + "/" + sh.name
			if !bytes.Equal(gotData, wantData) {
				t.Errorf("%s: bytes differ from the per-block walk", name)
			}
			if got != want {
				t.Errorf("%s: ReadAt %+v, per-block walk %+v", name, got, want)
			}
		}
	}
}
