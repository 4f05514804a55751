package storman

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"ssmobile/internal/engine"
	"ssmobile/internal/obs"
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
	_, _, loc := m.find(key)
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

// bounceReadAt is ReadAt over DRAM-resident blocks as it was before
// dram.Device.ReadWindow: each block's stored bytes read whole into a
// scratch block and the extent's part copied out, the rest zeroed, under
// one storman read span.
func bounceReadAt(t *testing.T, m *Manager, object uint64, off int64, buf []byte) {
	sp := m.span("read")
	bs := m.cfg.BlockBytes
	scratch := make([]byte, bs)
	var read int64
	for done := 0; done < len(buf); {
		at := off + int64(done)
		lo := int(at % int64(bs))
		dst := buf[done:min(len(buf), done+bs-lo)]
		done += len(dst)
		_, _, loc := m.find(Key{object, at / int64(bs)})
		if loc == nil || !loc.inDRAM() {
			t.Fatalf("block %d is not in DRAM", at/int64(bs))
		}
		src := scratch[:loc.size]
		if _, err := m.dram.Read(m.pageAddr(loc.dramPage), src); err != nil {
			t.Fatal(err)
		}
		m.dramReads.Inc()
		read += int64(loc.size)
		clear(dst[copy(dst, src[min(lo, loc.size):]):])
	}
	m.hostRead.Add(read)
	sp.End(read, nil)
}

// TestPartialDRAMReadMatchesBounce holds ReadAt's partial reads of
// DRAM-resident blocks, which copy only the part asked for, to the
// whole-block bounce they replaced. Twin stacks read the same extent the
// two ways inside a request, and must agree on the bytes, the clock, the
// meter in total and per category, the dram counters and the span
// stream.
func TestPartialDRAMReadMatchesBounce(t *testing.T) {
	const bs = 4096
	type twin struct {
		r *rig
		o *obs.Observer
	}
	build := func() twin {
		o := obs.New(0)
		r := newObservedRig(t, 1<<20, 0, o)
		// Block 0 full, block 1 truncated to shortBytes; both in DRAM.
		for blk := int64(0); blk < 2; blk++ {
			if err := r.m.WriteBlockAt(Key{Object: 1, Block: blk}, 0, blockOf(byte(0x40+blk), bs)); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.m.TruncateBlock(Key{Object: 1, Block: 1}, shortBytes); err != nil {
			t.Fatal(err)
		}
		if !r.m.InDRAM(Key{Object: 1, Block: 0}) || !r.m.InDRAM(Key{Object: 1, Block: 1}) {
			t.Fatal("blocks left DRAM")
		}
		return twin{r, o}
	}
	type span struct {
		layer, op, stage string
		bytes            int64
	}
	type outcome struct {
		data                  []byte
		clock, total          int64
		dram, flash, dramIdle int64
		dramReads, dramBytes  int64
		hostRead              int64
		spans                 []span
	}
	run := func(read func(m *Manager, off int64, buf []byte), off int64, n int) outcome {
		tw := build()
		r := tw.r
		from := tw.o.Tracer.Dropped() + int64(len(tw.o.Tracer.Spans()))
		tc := tw.o.BeginRequest(r.clock, "test", "get", 0)
		buf := bytes.Repeat([]byte{0xEE}, n)
		read(r.m, off, buf)
		tc.Finish(int64(n), nil)
		out := outcome{
			data:      buf,
			clock:     int64(r.clock.Now()),
			total:     int64(r.meter.Total()),
			dram:      int64(r.meter.Category("dram")),
			flash:     int64(r.meter.Category("flash")),
			dramIdle:  int64(r.meter.Category("dram-idle")),
			dramReads: r.dram.Stats().Reads,
			dramBytes: r.dram.Stats().BytesRead,
			hostRead:  r.m.Stats().HostBytesRead,
		}
		for _, sp := range tw.o.Tracer.Spans()[from-tw.o.Tracer.Dropped():] {
			out.spans = append(out.spans, span{sp.Layer, sp.Op, sp.Stage, sp.Bytes})
		}
		return out
	}
	for _, c := range []struct {
		name string
		off  int64
		n    int
	}{
		{"at 0", 0, 300},
		{"interior", 100, 200},
		{"at 0 of a short block", bs, 300},
		{"straddling the stored size", bs + shortBytes - 100, 300},
		{"past the stored size", bs + shortBytes + 100, 500},
		{"across both blocks", bs - 100, shortBytes + 300},
	} {
		got := run(func(m *Manager, off int64, buf []byte) {
			if err := m.ReadAt(1, off, buf); err != nil {
				t.Fatal(err)
			}
		}, c.off, c.n)
		want := run(func(m *Manager, off int64, buf []byte) { bounceReadAt(t, m, 1, off, buf) }, c.off, c.n)
		if !bytes.Equal(got.data, want.data) {
			t.Errorf("%s: bytes differ from the bounce", c.name)
		}
		gotSpans, wantSpans := got.spans, want.spans
		got.data, want.data, got.spans, want.spans = nil, nil, nil, nil
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: ReadAt %+v, bounce %+v", c.name, got, want)
		}
		if !reflect.DeepEqual(gotSpans, wantSpans) || len(gotSpans) == 0 {
			t.Errorf("%s: ReadAt spans %+v, bounce %+v", c.name, gotSpans, wantSpans)
		}
	}
}
