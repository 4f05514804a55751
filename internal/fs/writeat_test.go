package fs

import (
	"math/rand"
	"testing"

	"ssmobile/internal/engine/backends"
	"ssmobile/internal/obs"
)

// partialFileBlocks is the size, in blocks, of the synced file the fs
// rungs work on: a quarter of the rig's 2 MB write buffer, so a sync
// after every pass keeps each write landing on a flash-resident block.
const partialFileBlocks = 128

// syncedFile builds a file system over the named engine holding one
// synced file, /p, of partialFileBlocks full blocks, all in flash, with
// every layer reporting to o (nil for none).
func syncedFile(t testing.TB, eng string, o *obs.Observer) *rig {
	t.Helper()
	r := newPartsOn(t, eng, o)
	cfg := fsConfig()
	cfg.Obs = o
	f, err := Mkfs(cfg, r.clock, r.sm, r.dram)
	if err != nil {
		t.Fatal(err)
	}
	r.fs = f
	if err := f.WriteFile("/p", make([]byte, partialFileBlocks*f.BlockBytes())); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	return r
}

// partialFile is syncedFile with a run of partial writes into it:
// 512–4096 bytes at an arbitrary offset, each inside one block, one per
// block in a pass.
func partialFile(t testing.TB, eng string) (r *rig, offs []int64, sizes []int) {
	t.Helper()
	r = syncedFile(t, eng, nil)
	bs := r.fs.BlockBytes()
	rng := rand.New(rand.NewSource(1993))
	for _, blk := range rng.Perm(partialFileBlocks) {
		n := 512 + rng.Intn(bs-512+1)
		offs = append(offs, int64(blk*bs+rng.Intn(bs-n+1)))
		sizes = append(sizes, n)
	}
	return r, offs, sizes
}

// The fs rung of the benchmark ladder: one partial write into a
// flash-resident block, through storman's copy-on-write and the engine's
// page read. flash_reads/op counts device page reads: on ftl one per
// non-covering write, on pdl one per page of base and delta chain.
func BenchmarkFSWriteAtPartial(b *testing.B) {
	for _, eng := range backends.Names {
		b.Run(eng, func(b *testing.B) {
			r, offs, sizes := partialFile(b, eng)
			data := make([]byte, r.fs.BlockBytes())
			var syncReads int64
			b.ReportAllocs()
			b.ResetTimer()
			start := r.flash.Stats().Reads
			for i := 0; i < b.N; i++ {
				j := i % len(offs)
				if j == 0 && i > 0 {
					b.StopTimer()
					before := r.flash.Stats().Reads
					if err := r.fs.Sync(); err != nil {
						b.Fatal(err)
					}
					syncReads += r.flash.Stats().Reads - before
					b.StartTimer()
				}
				if _, err := r.fs.WriteAt("/p", offs[j], data[:sizes[j]]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(r.flash.Stats().Reads-start-syncReads)/float64(b.N), "flash_reads/op")
		})
	}
}

// TestWarmPartialWriteDoesNotAllocate is the allocation gate for the
// partial-write path: a write at an offset into a flash-resident block
// allocates nothing on either engine.
func TestWarmPartialWriteDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	for _, eng := range backends.Names {
		r, offs, sizes := partialFile(t, eng)
		data := make([]byte, r.fs.BlockBytes())
		// One warm-up write, then one per remaining block: every run
		// lands on a block still in flash.
		i := 0
		allocs := testing.AllocsPerRun(len(offs)-1, func() {
			if _, err := r.fs.WriteAt("/p", offs[i], data[:sizes[i]]); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if allocs != 0 {
			t.Errorf("%s: warm partial write allocated %.2f times per run", eng, allocs)
		}
		if cows := r.sm.Stats().CopyOnWrites; cows != int64(len(offs)) {
			t.Errorf("%s: %d copy-on-writes for %d writes into flash blocks", eng, cows, len(offs))
		}
	}
}
