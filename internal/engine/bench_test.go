package engine_test

import (
	"encoding/binary"
	"fmt"
	"testing"

	"ssmobile/internal/device"
	"ssmobile/internal/engine"
	"ssmobile/internal/engine/pdl"
	"ssmobile/internal/flash"
	"ssmobile/internal/ftl"
	"ssmobile/internal/obs"
	"ssmobile/internal/sim"
)

// BenchmarkEngineWritePath is the engine rung of the benchmark ladder: the
// per-write host cost of each backend as the card grows. ns/op that rises
// with the card size marks work done per card rather than per write — a
// scan over every block or every page on the cleaning path.
//
// Run with: go test ./internal/engine/ -bench BenchmarkEngineWritePath -benchmem -run '^$'
func BenchmarkEngineWritePath(b *testing.B) {
	for _, backend := range []string{"ftl", "pdl"} {
		for _, mb := range []int{64, 256, 1024} {
			b.Run(fmt.Sprintf("%s/size=%dMB", backend, mb), func(b *testing.B) {
				benchWritePath(b, backend, mb)
			})
		}
	}
}

func benchWritePath(b *testing.B, backend string, mb int) {
	const (
		banks      = 4
		blockBytes = 64 << 10
		pageBytes  = 4 << 10
		window     = 512 // bytes of a page one overwrite changes (the churn workloads' floor)
	)
	blocksPerBank := mb << 20 / banks / blockBytes
	clock := sim.NewClock()
	dev, err := flash.New(flash.Config{
		Banks:          banks,
		BlocksPerBank:  blocksPerBank,
		BlockBytes:     blockBytes,
		Params:         device.IntelFlash,
		SpareUnitBytes: pageBytes,
		SpareBytes:     ftl.OOBRecordBytes, // pdl's unit record is the same size
		Obs:            obs.New(0),
	}, clock, sim.NewEnergyMeter())
	if err != nil {
		b.Fatal(err)
	}
	reserve := banks * blocksPerBank / 50
	var e engine.Engine
	switch backend {
	case "ftl":
		e, err = ftl.New(dev, clock, ftl.Config{
			PageBytes: pageBytes, ReserveBlocks: reserve, Policy: ftl.PolicyCostBenefit,
			HotCold: true, PersistMapping: true, Obs: obs.New(0),
		})
	case "pdl":
		e, err = pdl.New(dev, clock, pdl.Config{PageBytes: pageBytes, ReserveBlocks: reserve, Obs: obs.New(0)})
	}
	if err != nil {
		b.Fatal(err)
	}

	// Fill 90% of the logical space (untimed) so that timed writes run
	// against a device under realistic cleaning pressure.
	page := make([]byte, pageBytes)
	for i := range page {
		page[i] = byte(i)
	}
	fill := e.LogicalPages() * 9 / 10
	for lpn := int64(0); lpn < fill; lpn++ {
		if err := e.WritePageTagged(lpn, page, engine.Tag{}); err != nil {
			b.Fatal(err)
		}
	}

	// Skewed sub-page overwrites — half the traffic hits the hot 1/16th of
	// the space. Each page only ever changes inside its own fixed window,
	// so pdl sees a window-sized diff every time: it appends deltas until
	// the chain bound promotes the page, and cleans base and delta blocks
	// alike. ftl rewrites the whole page.
	rng := sim.NewRNG(1993)
	seq := uint64(0)
	overwrite := func() {
		var lpn int64
		if rng.Intn(2) == 0 {
			lpn = rng.Int63n(fill/16 + 1)
		} else {
			lpn = rng.Int63n(fill)
		}
		seq++
		off := int(lpn*window) % (pageBytes - window)
		for j := 0; j < window; j += 8 {
			binary.LittleEndian.PutUint64(page[off+j:], seq)
		}
		err := e.WritePageTagged(lpn, page, engine.Tag{})
		for j := 0; j < window; j++ { // back to the fill image
			page[off+j] = byte(off + j)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	// Untimed warm-up: deltas are small, so pdl needs many overwrites to
	// eat the free tenth of the card; time only a cleaner that is running.
	for e.Stats().FreeBlocks > reserve+1 {
		for i := 0; i < 1024; i++ {
			overwrite()
		}
	}
	warm := e.Stats().Cleans
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		overwrite()
	}
	b.StopTimer()
	st := e.Stats()
	b.ReportMetric(st.WriteAmplification, "write-amp")
	b.ReportMetric(float64(st.Cleans-warm)/float64(b.N), "cleans/op")
}
