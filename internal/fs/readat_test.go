package fs

import (
	"math/rand"
	"runtime"
	"testing"

	"ssmobile/internal/engine/backends"
	"ssmobile/internal/obs"
)

// readBytes is the size of one read on the fs read rung: scan_read's
// 64 KB get.
const readBytes = 64 << 10

// readOffsets returns n offsets into syncedFile's /p at which a readBytes
// read fits, none of them block-aligned, so each read cuts a block at
// both ends.
func readOffsets(bs, n int) []int64 {
	rng := rand.New(rand.NewSource(1993))
	offs := make([]int64, n)
	for i := range offs {
		off := rng.Intn(partialFileBlocks*bs - readBytes)
		if off%bs == 0 {
			off++
		}
		offs[i] = int64(off)
	}
	return offs
}

// The fs read rung of the benchmark ladder: 64 KB at an arbitrary offset
// of a synced file, through storman's ReadAt, which hands each run of
// whole flash blocks to the engine in one call, and traced as ssmserve
// runs. flash_reads/op counts device page reads: one per block the extent
// touches on ftl (17), one per page of base and delta chain on pdl.
// spans/op counts the spans one read records, every layer's.
func BenchmarkFSReadAt(b *testing.B) {
	for _, eng := range backends.Names {
		b.Run(eng, func(b *testing.B) {
			o := obs.New(0)
			r := syncedFile(b, eng, o)
			offs := readOffsets(r.fs.BlockBytes(), 256)
			buf := make([]byte, readBytes)
			b.SetBytes(readBytes)
			reads, spans := r.flash.Stats().Reads, recordedSpans(o.Tracer)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.fs.ReadAt("/p", offs[i%len(offs)], buf); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(r.flash.Stats().Reads-reads)/float64(b.N), "flash_reads/op")
			b.ReportMetric(float64(recordedSpans(o.Tracer)-spans)/float64(b.N), "spans/op")
		})
	}
}

// TestWarmReadDoesNotAllocate is the allocation gate for the read path:
// 64 KB at an unaligned offset over flash-resident blocks allocates
// nothing on either engine, and reading promotes nothing to DRAM.
func TestWarmReadDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	for _, eng := range backends.Names {
		r := syncedFile(t, eng, nil)
		offs := readOffsets(r.fs.BlockBytes(), 64)
		buf := make([]byte, readBytes)
		i := 0
		allocs := testing.AllocsPerRun(len(offs)-1, func() {
			if n, err := r.fs.ReadAt("/p", offs[i], buf); err != nil || n != readBytes {
				t.Fatalf("%s: read %d bytes at %d: %v", eng, n, offs[i], err)
			}
			i++
		})
		if allocs != 0 {
			t.Errorf("%s: warm 64 KB read allocated %.2f times per run", eng, allocs)
		}
		if s := r.sm.Stats(); s.DRAMReads != 0 || s.FlashReads != int64(len(offs))*17 {
			t.Errorf("%s: %d DRAM and %d flash block reads for %d reads of 17 flash blocks", eng, s.DRAMReads, s.FlashReads, len(offs))
		}
	}
}

// TestFirstReadDoesNotAllocate holds the read path to scratch allocated
// at construction: the very first 64 KB read of a freshly synced file
// allocates nothing on either engine. testing.AllocsPerRun warms up with
// one call it does not count, so a buffer grown on first use passes
// TestWarmReadDoesNotAllocate; this test counts that call.
func TestFirstReadDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, eng := range backends.Names {
		r := syncedFile(t, eng, nil)
		off := readOffsets(r.fs.BlockBytes(), 1)[0]
		buf := make([]byte, readBytes)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n, err := r.fs.ReadAt("/p", off, buf)
		runtime.ReadMemStats(&after)
		if err != nil || n != readBytes {
			t.Fatalf("%s: read %d bytes at %d: %v", eng, n, off, err)
		}
		if allocs := after.Mallocs - before.Mallocs; allocs != 0 {
			t.Errorf("%s: the first 64 KB read allocated %d times", eng, allocs)
		}
	}
}

// recordedSpans is how many spans t has recorded: those it keeps and
// those its ring overwrote.
func recordedSpans(t *obs.Tracer) int64 { return int64(len(t.Spans())) + t.Dropped() }
