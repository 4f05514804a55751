package flash

import (
	"fmt"
	"sort"

	"ssmobile/internal/obs"
	"ssmobile/internal/sim"
)

// Wear attribution and burn-rate telemetry.
//
// The device already counts programs and erases; this file answers two
// further questions the endurance arguments of the paper turn on:
//
//   - WHY: every program and erase is charged to the observer's active
//     obs.Cause, so write amplification decomposes into host writes,
//     sync-forced flushes, cleaner traffic, idle cleaning, recovery and
//     metadata instead of one opaque total;
//   - HOW FAST: bounded virtual-time ring samplers (obs.RateSampler)
//     turn the cumulative totals into windowed rates — the burn rate the
//     device-health report divides into the remaining endurance budget.
//
// Everything here is pure observation: no clock advances, no behavior
// changes, and registration happens in a fixed order so metric dumps
// stay byte-identical across runs.

// HealthWindow is the trailing virtual-time window the burn-rate gauges
// (erase_rate_per_s, program_bytes_rate_per_s) are computed over.
const HealthWindow = sim.Minute

// rateSamplerCap bounds the burn-rate rings. Sized generously relative
// to destructive ops per window so the windowed rate stays exact; a full
// ring can only under-report (see obs.RateSampler).
const rateSamplerCap = 512

// wearBucketBounds are the erase-count histogram bounds: cumulative
// "blocks with erase count <= bound" per bank, plus a +Inf bucket. The
// coarse power-of-four ladder keeps the series count small while still
// resolving the hot-block tail against the 100k-cycle endurance limit.
var wearBucketBounds = []int64{0, 1, 4, 16, 64, 256, 1024, 4096, 16384, 65536}

// WearBucketLabels returns the bucket "le" label values in order,
// ending with "+Inf"; ssmtrace renders heatmap columns from them.
func WearBucketLabels() []string {
	out := make([]string, 0, len(wearBucketBounds)+1)
	for _, b := range wearBucketBounds {
		out = append(out, fmt.Sprint(b))
	}
	return append(out, "+Inf")
}

// initWear builds the cause-labelled counters, wear gauges and rate
// samplers. Called once from New; o may be nil (standalone counters,
// no exported gauges — exactly how the other device metrics degrade).
func (d *Device) initWear(o *obs.Observer) {
	dev := d.cfg.MeterCategory
	// Canonical cause order so registration — and with it exposition and
	// snapshot layout — is deterministic.
	for c := range d.causeProg {
		lbl := obs.Labels{"layer": "flash", "device": dev, "cause": obs.Cause(c).String()}
		d.causeProg[c] = o.Counter("flash_bytes_programmed_total", lbl)
		d.causeErase[c] = o.Counter("erases_total", lbl)
	}
	d.eraseRate = obs.NewRateSampler(rateSamplerCap, HealthWindow)
	d.progRate = obs.NewRateSampler(rateSamplerCap, HealthWindow)

	if !o.Exports() {
		// No registry: none of the read-through gauges below could ever
		// be collected, and building them (a hundred-plus label sets and
		// closures per device) is pure construction cost. The counters
		// and samplers above still work standalone, so nothing the
		// device itself reports is lost.
		return
	}
	base := obs.Labels{"layer": "flash", "device": dev}
	wearGauges := func(bank string, counts func() []int64) {
		for _, stat := range []string{"max", "mean", "p99"} {
			stat := stat
			o.GaugeFunc("wear_erase_count", obs.Labels{
				"layer": "flash", "device": dev, "bank": bank, "stat": stat,
			}, func() float64 {
				max, mean, p99 := wearStats(counts())
				switch stat {
				case "max":
					return float64(max)
				case "mean":
					return mean
				default:
					return p99
				}
			})
		}
	}
	wearGauges("all", func() []int64 { return d.eraseCount })
	for b := 0; b < d.cfg.Banks; b++ {
		b := b
		wearGauges(fmt.Sprint(b), func() []int64 { return d.bankEraseCounts(b) })
	}
	for b := 0; b < d.cfg.Banks; b++ {
		b := b
		for i, le := range WearBucketLabels() {
			i := i
			o.GaugeFunc("wear_blocks_le", obs.Labels{
				"layer": "flash", "device": dev, "bank": fmt.Sprint(b), "le": le,
			}, func() float64 {
				bound := int64(1<<62 - 1)
				if i < len(wearBucketBounds) {
					bound = wearBucketBounds[i]
				}
				n := 0
				for _, c := range d.bankEraseCounts(b) {
					if c <= bound {
						n++
					}
				}
				return float64(n)
			})
		}
	}
	o.GaugeFunc("wear_blocks", base, func() float64 { return float64(d.NumBlocks()) })
	o.GaugeFunc("wear_endurance_cycles", base, func() float64 { return float64(d.cfg.Params.EnduranceCycles) })
	o.GaugeFunc("wear_erase_cycles", base, func() float64 {
		var sum int64
		for _, c := range d.eraseCount {
			sum += c
		}
		return float64(sum)
	})
	o.GaugeFunc("erase_rate_per_s", base, func() float64 { return d.eraseRate.Rate(d.clock.Now()) })
	o.GaugeFunc("program_bytes_rate_per_s", base, func() float64 { return d.progRate.Rate(d.clock.Now()) })
}

// chargeProgram attributes n programmed bytes to the active cause and
// samples the programmed-bytes burn rate. Runs on every program, after
// the completion counters — a cut operation is charged to no cause,
// exactly as it reaches no completion counter.
func (d *Device) chargeProgram(n int64) {
	d.causeProg[d.obs.Cause()].Add(n)
	d.progRate.Observe(d.clock.Now(), d.bytesProg.Value())
}

// chargeErase attributes one erase to the active cause and samples the
// erase burn rate.
func (d *Device) chargeErase() {
	d.causeErase[d.obs.Cause()].Inc()
	d.eraseRate.Observe(d.clock.Now(), d.erases.Value())
}

// bankEraseCounts returns the live per-block erase counts of one bank
// (a view, not a copy — callers must not mutate it).
func (d *Device) bankEraseCounts(bank int) []int64 {
	lo := bank * d.cfg.BlocksPerBank
	return d.eraseCount[lo : lo+d.cfg.BlocksPerBank]
}

// wearStats reports max, mean and nearest-rank p99 of a count slice.
func wearStats(counts []int64) (max int64, mean, p99 float64) {
	if len(counts) == 0 {
		return 0, 0, 0
	}
	var sum int64
	sorted := make([]int64, len(counts))
	copy(sorted, counts)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, c := range sorted {
		sum += c
	}
	max = sorted[len(sorted)-1]
	mean = float64(sum) / float64(len(sorted))
	p99 = float64(sorted[(len(sorted)-1)*99/100])
	return max, mean, p99
}

// CauseBytesProgrammed reports this instance's programmed bytes charged
// to cause c (spare programs included, like Stats().BytesProgrammed).
func (d *Device) CauseBytesProgrammed(c obs.Cause) int64 {
	return d.causeProg[c].Value()
}

// CauseErases reports this instance's erases charged to cause c.
func (d *Device) CauseErases(c obs.Cause) int64 {
	return d.causeErase[c].Value()
}
