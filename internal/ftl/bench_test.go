package ftl

import (
	"fmt"
	"testing"

	"ssmobile/internal/device"
	"ssmobile/internal/flash"
	"ssmobile/internal/obs"
	"ssmobile/internal/sim"
)

// BenchmarkFTLWritePath measures the host-write fast path — allocation,
// cleaning-victim selection and wear-leveling checks included — across
// device sizes. Victim selection, free-block choice and the cold-block
// search are each one pass over the blocks (or a bank's free blocks), so
// ns/op grows with the card wherever cleaning runs; the static-leveling
// scan is skipped while no block has more erases than the threshold,
// which keeps the untimed fill of a young card fast.
func BenchmarkFTLWritePath(b *testing.B) {
	for _, mb := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("size=%dMB", mb), func(b *testing.B) {
			benchWritePath(b, mb)
		})
	}
}

func benchWritePath(b *testing.B, mb int) {
	const (
		banks      = 4
		blockBytes = 64 << 10
		pageBytes  = 4 << 10
	)
	blocksPerBank := mb << 20 / banks / blockBytes
	clock := sim.NewClock()
	dev, err := flash.New(flash.Config{
		Banks:         banks,
		BlocksPerBank: blocksPerBank,
		BlockBytes:    blockBytes,
		Params:        device.IntelFlash,
		Obs:           obs.New(0),
	}, clock, sim.NewEnergyMeter())
	if err != nil {
		b.Fatal(err)
	}
	f, err := New(dev, clock, Config{
		PageBytes:          pageBytes,
		Policy:             PolicyCostBenefit,
		HotCold:            true,
		WearDeltaThreshold: 64,
		Obs:                obs.New(0),
	})
	if err != nil {
		b.Fatal(err)
	}

	// Fill 90% of the logical space (untimed) so that timed writes run
	// against a device under realistic cleaning pressure.
	data := make([]byte, pageBytes)
	for i := range data {
		data[i] = byte(i)
	}
	pages := f.LogicalPages()
	fill := pages * 9 / 10
	for lpn := int64(0); lpn < fill; lpn++ {
		if err := f.WritePage(lpn, data); err != nil {
			b.Fatal(err)
		}
	}

	// Timed: skewed overwrites — half the traffic hits the hot 1/16th of
	// the space, the classic workload that keeps the cleaner busy.
	rng := sim.NewRNG(1993)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var lpn int64
		if rng.Intn(2) == 0 {
			lpn = rng.Int63n(fill/16 + 1)
		} else {
			lpn = rng.Int63n(fill)
		}
		if err := f.WritePage(lpn, data); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := f.Stats()
	b.ReportMetric(float64(st.WriteAmplification), "write-amp")
}
