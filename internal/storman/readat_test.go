package storman

import (
	"bytes"
	"strings"
	"testing"

	"ssmobile/internal/engine"
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
		if err := m.fl.ReadPages([]int64{loc.lpn}, page); err != nil {
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

// readLayout is the object readLayoutRig builds, one letter per block: F
// a full block in flash, D one in DRAM, f and d the same truncated to
// shortBytes over a full page of older bytes, - absent. Blocks 0-6 put
// each medium next to every other; the rest put runs of whole flash
// blocks between every kind of block that ends one, and end on a run
// longer than the engine takes in one call.
var readLayout = "FDF-DfdFFFDFF-FfFF" + strings.Repeat("F", engine.ReadRunPages+6)

// readLayoutRig builds one object laid out as readLayout says, block i
// holding bytes 0x10+i.
func readLayoutRig(t *testing.T) *rig {
	t.Helper()
	r := newRig(t, 1<<20, 0)
	write := func(media string) {
		for blk, m := range readLayout {
			if strings.ContainsRune(media, m) {
				if err := r.m.WriteBlockAt(Key{Object: 1, Block: int64(blk)}, 0, blockOf(byte(0x10+blk), 4096)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	write("Ff")
	if err := r.m.Sync(); err != nil {
		t.Fatal(err)
	}
	write("Dd")
	for blk, m := range readLayout {
		key := Key{Object: 1, Block: int64(blk)}
		if m == 'f' || m == 'd' {
			if err := r.m.TruncateBlock(key, shortBytes); err != nil {
				t.Fatal(err)
			}
		}
		if m != '-' && r.m.InDRAM(key) != (m == 'D' || m == 'd') {
			t.Fatalf("block %d: in DRAM %v, layout says %c", blk, r.m.InDRAM(key), m)
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
	// Extents over the whole layout: every boundary a run of flash blocks
	// can meet, at both ends.
	for _, ext := range []struct{ off, n int64 }{
		{0, int64(len(readLayout)) * bs},
		{bs / 2, int64(len(readLayout)-1) * bs},
		{6*bs + shortBytes/2, 12*bs + 300},
	} {
		gotData, got := run(func(m *Manager, off int64, buf []byte) error { return m.ReadAt(1, off, buf) }, ext.off, int(ext.n))
		wantData, want := run(func(m *Manager, off int64, buf []byte) error { return refReadAt(m, 1, off, buf) }, ext.off, int(ext.n))
		if !bytes.Equal(gotData, wantData) {
			t.Errorf("layout [%d,+%d): bytes differ from the per-block walk", ext.off, ext.n)
		}
		if got != want {
			t.Errorf("layout [%d,+%d): ReadAt %+v, per-block walk %+v", ext.off, ext.n, got, want)
		}
	}
}
