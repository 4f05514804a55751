package flash

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"ssmobile/internal/device"
	"ssmobile/internal/sim"
)

// refFirstOverwrite is the byte loop program and ProgramSpare used to run:
// the reference firstOverwrite must agree with on every input.
func refFirstOverwrite(old, p []byte) int {
	for i, b := range p {
		if ^old[i]&b != 0 {
			return i
		}
	}
	return -1
}

// TestFirstOverwriteMatchesByteLoop sweeps every alignment and length
// around the word size, with no violation, one violation at each index,
// and two (the first must win).
func TestFirstOverwriteMatchesByteLoop(t *testing.T) {
	backing := make([]byte, 64)
	for off := 0; off < 16; off++ {
		for n := 0; n <= 40; n++ {
			old := backing[off : off+n]
			p := make([]byte, n)
			for i := range old {
				old[i] = byte(0xA5 ^ i) // a mix of set and cleared bits
				p[i] = old[i] & byte(0x3C+i)
			}
			if got := firstOverwrite(old, p); got != -1 {
				t.Fatalf("off %d len %d: legal program rejected at %d", off, n, got)
			}
			for bad := 0; bad < n; bad++ {
				for _, second := range []int{-1, n - 1} {
					q := append([]byte(nil), p...)
					q[bad] |= ^old[bad] & -^old[bad] // set one bit old has cleared
					if second > bad {
						q[second] = 0xFF
					}
					want := refFirstOverwrite(old, q)
					if want != bad {
						t.Fatalf("reference found %d, planted %d", want, bad)
					}
					if got := firstOverwrite(old, q); got != want {
						t.Fatalf("off %d len %d violation at %d: word-wise check found %d", off, n, bad, got)
					}
				}
			}
		}
	}
}

// TestOverwriteErrorNamesFirstOffender pins what ErrOverwrite reports:
// the first offending address with its old and new byte, wherever in a
// word it falls.
func TestOverwriteErrorNamesFirstOffender(t *testing.T) {
	for bad := 0; bad < 8; bad++ {
		d, _, _ := newTestDevice(t, spareConfig())
		if _, err := d.Program(16, make([]byte, 8)); err != nil { // clear one word
			t.Fatal(err)
		}
		p := make([]byte, 8)
		p[7] = 0x01 // illegal over the cleared word too, but never first
		p[bad] = 0x10
		_, err := d.Program(16, p)
		want := fmt.Sprintf("addr %d old 00 new 10", 16+bad)
		if !errors.Is(err, ErrOverwrite) || !strings.Contains(err.Error(), want) {
			t.Fatalf("violation in byte %d of the word: got %v, want %q", bad, err, want)
		}

		if _, err := d.ProgramSpare(1, make([]byte, 8)); err != nil {
			t.Fatal(err)
		}
		_, err = d.ProgramSpare(1, p)
		want = fmt.Sprintf("spare unit 1 byte %d old 00 new 10", bad)
		if !errors.Is(err, ErrOverwrite) || !strings.Contains(err.Error(), want) {
			t.Fatalf("spare violation in byte %d: got %v, want %q", bad, err, want)
		}
	}
}

// TestEraseFillsOddSizedBlock erases on a geometry whose block and spare
// sizes are not powers of two: every data and spare byte of the block —
// and no byte of its neighbours — must read erased.
func TestEraseFillsOddSizedBlock(t *testing.T) {
	cfg := Config{Banks: 1, BlocksPerBank: 3, BlockBytes: 3 * 100, Params: device.IntelFlash, SpareUnitBytes: 100, SpareBytes: 7}
	d, _, _ := newTestDevice(t, cfg)
	for a := int64(0); a < d.Capacity(); a++ {
		if d.Peek(a) != 0xFF {
			t.Fatalf("fresh device: data byte %d is %02x", a, d.Peek(a))
		}
	}
	zeros := make([]byte, cfg.BlockBytes)
	for b := 0; b < 3; b++ {
		if _, err := d.Program(d.BlockAddr(b), zeros); err != nil {
			t.Fatal(err)
		}
	}
	for u := int64(0); u < d.SpareUnits(); u++ {
		if _, err := d.ProgramSpare(u, zeros[:cfg.SpareBytes]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Erase(1); err != nil {
		t.Fatal(err)
	}
	for a := int64(0); a < d.Capacity(); a++ {
		want := byte(0)
		if d.BlockOf(a) == 1 {
			want = 0xFF
		}
		if d.Peek(a) != want {
			t.Fatalf("data byte %d (block %d) is %02x, want %02x", a, d.BlockOf(a), d.Peek(a), want)
		}
	}
	for u := int64(0); u < d.SpareUnits(); u++ {
		want := byte(0)
		if u/3 == 1 {
			want = 0xFF
		}
		for i, b := range d.PeekSpare(u) {
			if b != want {
				t.Fatalf("spare unit %d byte %d is %02x, want %02x", u, i, b, want)
			}
		}
	}
}

// The flash rung of the benchmark ladder: one page read, a run of page
// reads, one page program into erased flash and one over programmed
// bytes, one block erase and building a card, the operations every
// engine's paths and every stack's set-up are made of.

func benchDevice(b *testing.B, blockBytes int) *Device {
	b.Helper()
	cfg := Config{Banks: 4, BlocksPerBank: 64, BlockBytes: blockBytes, Params: device.IntelFlash, SpareUnitBytes: 4096, SpareBytes: 16}
	cfg.Params.EnduranceCycles = 0 // the loop erases each block far past any real part's life
	d, err := New(cfg, sim.NewClock(), sim.NewEnergyMeter())
	if err != nil {
		b.Fatal(err)
	}
	return d
}

func BenchmarkFlashRead(b *testing.B) {
	b.Run("4KB", func(b *testing.B) {
		d := benchDevice(b, 64<<10)
		page := make([]byte, 4096)
		pages := d.Capacity() / int64(len(page))
		b.SetBytes(int64(len(page)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := d.Read(int64(i)%pages*int64(len(page)), page); err != nil {
				b.Fatal(err)
			}
		}
	})
	// A run of 16 pages in one ReadPages call, scan_read's middle: one
	// span and one set of counter updates, every page still charged.
	b.Run("16x4KB", func(b *testing.B) {
		d := benchDevice(b, 64<<10)
		const run = 16
		buf := make([]byte, run*4096)
		addrs := make([]int64, run)
		pages := d.Capacity() / 4096
		b.SetBytes(int64(len(buf)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range addrs {
				addrs[j] = (int64(i)*run + int64(j)) % pages * 4096
			}
			if _, err := d.ReadPages(addrs, buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkFlashProgram(b *testing.B) {
	b.Run("4KB", func(b *testing.B) {
		d := benchDevice(b, 64<<10)
		page := make([]byte, 4096)
		for i := range page {
			page[i] = byte(i)
		}
		pages := d.Capacity() / int64(len(page))
		// Program the whole card first, so no timed iteration lands on
		// erased bytes or on a page the process has never touched.
		for p := int64(0); p < pages; p++ {
			if _, err := d.Program(p*int64(len(page)), page); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(page)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Programming the same bytes again only clears cleared bits, so
			// the card never needs an erase and every iteration runs the
			// full check and copy.
			if _, err := d.Program(int64(i)%pages*int64(len(page)), page); err != nil {
				b.Fatal(err)
			}
		}
	})
	// What the engines do: program erased pages in order and erase each
	// block once it is full, so one iteration in sixteen also erases.
	b.Run("4KB-erased", func(b *testing.B) {
		d := benchDevice(b, 64<<10)
		page := make([]byte, 4096)
		for i := range page {
			page[i] = byte(i)
		}
		pages := d.Capacity() / int64(len(page))
		perBlock := int64(d.BlockBytes() / len(page))
		b.SetBytes(int64(len(page)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := int64(0); i < int64(b.N); i++ {
			addr := i % pages * int64(len(page))
			if _, err := d.Program(addr, page); err != nil {
				b.Fatal(err)
			}
			if (i+1)%perBlock == 0 {
				if _, err := d.Erase(d.BlockOf(addr)); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// builtCards holds every card BenchmarkFlashNew builds until the process
// exits (see there).
var builtCards []*Device

// BenchmarkFlashNew builds the churn workloads' card: 2048 blocks of
// 64 KB and a 36-byte page record (blocks.PageRecordBytes) of spare per
// 4 KB page. It measures what a served process pays at start, which
// builds its card on address space it has never used. The Go runtime
// clears any range it hands out again, even one returned to the OS, so
// a card built where a dropped one lay faults in and zeroes its whole
// array: ~80 ms, against ~2 ms on fresh memory. Every card is therefore
// kept, across the framework's runs too (dropping all but the data
// array frees holes the next arrays land in). New writes no data byte,
// so a kept card costs 128 MB of address space but only its ~1 MB of
// spare in memory: run it with a fixed count, as -benchtime 100x.
func BenchmarkFlashNew(b *testing.B) {
	b.Run("128MB", func(b *testing.B) {
		cfg := Config{Banks: 4, BlocksPerBank: 512, BlockBytes: 64 << 10, Params: device.IntelFlash, SpareUnitBytes: 4096, SpareBytes: 36}
		b.SetBytes(cfg.Capacity())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d, err := New(cfg, sim.NewClock(), sim.NewEnergyMeter())
			if err != nil {
				b.Fatal(err)
			}
			builtCards = append(builtCards, d)
		}
	})
}

func BenchmarkFlashErase(b *testing.B) {
	b.Run("64KB", func(b *testing.B) {
		d := benchDevice(b, 64<<10)
		b.SetBytes(64 << 10)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := d.Erase(i % d.NumBlocks()); err != nil {
				b.Fatal(err)
			}
		}
	})
}
