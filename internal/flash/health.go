package flash

import (
	"fmt"
	"io"
	"sort"
	"strconv"

	"ssmobile/internal/obs"
)

// SMART-style device health, computed from a metrics snapshot.
//
// Everything here is a pure function of an obs.Snapshot, so the live
// admin surface (/debug/health snapshots its registry) and the offline
// `ssmtrace health` (reads a -metrics JSON dump) share one code path and
// cannot disagree: the lifetime estimate a server reports is exactly
// reconstructible from its metrics dump.

// HealthReport is the device-health summary served at /debug/health and
// printed by `ssmtrace health`. Field order is the JSON layout; keep it
// stable — golden tests pin the rendered bytes.
type HealthReport struct {
	Device          string `json:"device"`
	Blocks          int64  `json:"blocks"`
	EnduranceCycles int64  `json:"endurance_cycles"`

	// Endurance budget: cycles burned across all blocks (cut-interrupted
	// erases included — they age the array without completing) against
	// the device-wide budget Blocks × EnduranceCycles.
	EraseCyclesTotal     int64   `json:"erase_cycles_total"`
	RemainingEraseBudget int64   `json:"remaining_erase_budget"`
	LifeUsedPct          float64 `json:"life_used_pct"`

	// Wear spread across blocks; WearSpread is max − mean, the headroom
	// a wear-leveling policy could still reclaim.
	MaxEraseCount  float64 `json:"max_erase_count"`
	MeanEraseCount float64 `json:"mean_erase_count"`
	P99EraseCount  float64 `json:"p99_erase_count"`
	WearSpread     float64 `json:"wear_spread"`

	// Free-block margin from the translation layer (-1 when no FTL
	// metrics are present in the snapshot, e.g. a bare device).
	FreeBlocks      float64 `json:"free_blocks"`
	FreeBlockMargin float64 `json:"free_block_margin"`

	// Windowed burn rates (trailing HealthWindow of virtual time) and the
	// lifetime left at that rate; 0 seconds means no erases in the window
	// and renders as "unbounded".
	EraseRatePerSec        float64 `json:"erase_rate_per_sec"`
	ProgramBytesRatePerSec float64 `json:"program_bytes_rate_per_sec"`
	LifetimeSeconds        float64 `json:"lifetime_seconds_at_current_rate"`
	Lifetime               string  `json:"lifetime_at_current_rate"`

	// Write amplification from the translation layer, overall and by
	// cause (zero values when no FTL metrics are present).
	WriteAmplification float64       `json:"write_amplification"`
	WriteAmpByCause    []CauseAmount `json:"write_amplification_by_cause"`
}

// CauseAmount is one cause's share in a by-cause breakdown, in the
// canonical obs.Cause order.
type CauseAmount struct {
	Cause string  `json:"cause"`
	Value float64 `json:"value"`
}

// FormatLifetime renders a lifetime in seconds of virtual time humanely,
// for a card's health report and a fleet's alike.
func FormatLifetime(s float64) string {
	const day = 86400.0
	switch {
	case s <= 0:
		return "unbounded"
	case s >= 365.25*day:
		return fmt.Sprintf("%.1fy", s/(365.25*day))
	case s >= day:
		return fmt.Sprintf("%.1fd", s/day)
	case s >= 3600:
		return fmt.Sprintf("%.1fh", s/3600)
	default:
		return fmt.Sprintf("%.0fs", s)
	}
}

func findGauge(snap obs.Snapshot, name string, labels obs.Labels) (float64, bool) {
	m, ok := snap.Find(name, labels)
	if !ok {
		return 0, false
	}
	return m.Value, true
}

// HealthFromSnapshot computes the device-health report for the named
// device (the flash MeterCategory, "flash" in the standard stack) from a
// metrics snapshot. It fails if the snapshot predates wear telemetry.
func HealthFromSnapshot(snap obs.Snapshot, device string) (HealthReport, error) {
	dev := obs.Labels{"layer": "flash", "device": device}
	blocks, ok := findGauge(snap, "wear_blocks", dev)
	if !ok {
		return HealthReport{}, fmt.Errorf("flash: snapshot has no wear telemetry for device %q (wear_blocks missing)", device)
	}
	endurance, _ := findGauge(snap, "wear_endurance_cycles", dev)
	cycles, _ := findGauge(snap, "wear_erase_cycles", dev)
	all := func(stat string) float64 {
		v, _ := findGauge(snap, "wear_erase_count", obs.Labels{
			"layer": "flash", "device": device, "bank": "all", "stat": stat,
		})
		return v
	}
	eraseRate, _ := findGauge(snap, "erase_rate_per_s", dev)
	progRate, _ := findGauge(snap, "program_bytes_rate_per_s", dev)

	r := HealthReport{
		Device:                 device,
		Blocks:                 int64(blocks),
		EnduranceCycles:        int64(endurance),
		EraseCyclesTotal:       int64(cycles),
		MaxEraseCount:          all("max"),
		MeanEraseCount:         all("mean"),
		P99EraseCount:          all("p99"),
		EraseRatePerSec:        eraseRate,
		ProgramBytesRatePerSec: progRate,
	}
	r.WearSpread = r.MaxEraseCount - r.MeanEraseCount
	budget := r.Blocks * r.EnduranceCycles
	if budget > 0 {
		r.RemainingEraseBudget = budget - r.EraseCyclesTotal
		if r.RemainingEraseBudget < 0 {
			r.RemainingEraseBudget = 0
		}
		r.LifeUsedPct = 100 * float64(r.EraseCyclesTotal) / float64(budget)
	}
	if r.EraseRatePerSec > 0 {
		r.LifetimeSeconds = float64(r.RemainingEraseBudget) / r.EraseRatePerSec
	}
	r.Lifetime = FormatLifetime(r.LifetimeSeconds)

	// The translation-layer gauges carry an engine label; probe each
	// backend's label set and use the first that has data.
	engineLbls := []obs.Labels{
		{"layer": "ftl", "engine": "ftl"},
		{"layer": "pdl", "engine": "pdl"},
	}
	r.FreeBlocks, r.FreeBlockMargin = -1, -1
	for _, lbl := range engineLbls {
		free, freeOK := findGauge(snap, "free_blocks", lbl)
		wa, waOK := findGauge(snap, "write_amplification", lbl)
		if !freeOK && !waOK {
			continue
		}
		if freeOK {
			r.FreeBlocks = free
			if blocks > 0 {
				r.FreeBlockMargin = free / blocks
			}
		}
		if waOK {
			r.WriteAmplification = wa
			for c := obs.Cause(0); c < obs.NumCauses; c++ {
				cl := obs.Labels{"cause": c.String()}
				for k, v := range lbl {
					cl[k] = v
				}
				v, _ := findGauge(snap, "write_amplification", cl)
				r.WriteAmpByCause = append(r.WriteAmpByCause, CauseAmount{Cause: c.String(), Value: v})
			}
		}
		break
	}
	return r, nil
}

// Fprint renders the report as the human-readable `ssmtrace health` text.
func (r HealthReport) Fprint(w io.Writer) {
	fmt.Fprintf(w, "device %q: %d blocks, endurance %d cycles/block\n", r.Device, r.Blocks, r.EnduranceCycles)
	fmt.Fprintf(w, "  life used        %.3f%% (%d of %d cycles)\n",
		r.LifeUsedPct, r.EraseCyclesTotal, r.Blocks*r.EnduranceCycles)
	fmt.Fprintf(w, "  wear             max %.0f  mean %.2f  p99 %.0f  spread %.2f\n",
		r.MaxEraseCount, r.MeanEraseCount, r.P99EraseCount, r.WearSpread)
	if r.FreeBlocks >= 0 {
		fmt.Fprintf(w, "  free blocks      %.0f (margin %.1f%%)\n", r.FreeBlocks, 100*r.FreeBlockMargin)
	}
	fmt.Fprintf(w, "  burn rate        %.4f erases/s, %.0f program B/s (trailing window)\n",
		r.EraseRatePerSec, r.ProgramBytesRatePerSec)
	fmt.Fprintf(w, "  lifetime at rate %s (%.0f s of budget %d)\n", r.Lifetime, r.LifetimeSeconds, r.RemainingEraseBudget)
	if len(r.WriteAmpByCause) > 0 {
		fmt.Fprintf(w, "  write amp        %.3f total\n", r.WriteAmplification)
		for _, c := range r.WriteAmpByCause {
			fmt.Fprintf(w, "    %-18s %.3f\n", c.Cause, c.Value)
		}
	}
}

// heatShades maps a cell's share of its bank's blocks to a character;
// index 0 is "empty bucket".
var heatShades = []byte(" .:-=+*#%@")

// RenderWearHeatmap renders the per-bank erase-count distribution from a
// metrics snapshot as a text heatmap: one row per bank, one column per
// histogram bucket, cell shade by the fraction of the bank's blocks in
// that bucket, with the bank's max/mean/p99 at the right. Output is a
// pure function of the snapshot, so goldens can pin it byte-exactly.
func RenderWearHeatmap(w io.Writer, snap obs.Snapshot, device string) error {
	banks := map[int]bool{}
	for _, m := range snap.Metrics {
		if m.Name != "wear_blocks_le" || m.Labels["device"] != device {
			continue
		}
		if b, err := strconv.Atoi(m.Labels["bank"]); err == nil {
			banks[b] = true
		}
	}
	if len(banks) == 0 {
		return fmt.Errorf("flash: snapshot has no wear_blocks_le series for device %q", device)
	}
	order := make([]int, 0, len(banks))
	for b := range banks {
		order = append(order, b)
	}
	sort.Ints(order)
	labels := WearBucketLabels()

	blocks, _ := findGauge(snap, "wear_blocks", obs.Labels{"layer": "flash", "device": device})
	fmt.Fprintf(w, "wear heatmap: device %q, %d banks, %.0f blocks\n", device, len(order), blocks)
	fmt.Fprintf(w, "  cells: blocks per erase-count bucket; shade = share of the bank's blocks\n")
	header := "  bank |"
	for _, le := range labels {
		header += fmt.Sprintf(" %6s", le)
	}
	header += " |    max    mean    p99 | heat"
	fmt.Fprintln(w, header)
	for _, b := range order {
		bank := fmt.Sprint(b)
		// Cumulative-to-bin: blocks in bucket i = le_i count − le_{i−1} count.
		prev := 0.0
		bins := make([]float64, len(labels))
		total := 0.0
		for i, le := range labels {
			cum, ok := findGauge(snap, "wear_blocks_le", obs.Labels{
				"layer": "flash", "device": device, "bank": bank, "le": le,
			})
			if !ok {
				return fmt.Errorf("flash: device %q bank %s missing bucket le=%s", device, bank, le)
			}
			bins[i] = cum - prev
			prev = cum
			total += bins[i]
		}
		row := fmt.Sprintf("  %4s |", bank)
		heat := make([]byte, len(bins))
		for i, n := range bins {
			row += fmt.Sprintf(" %6.0f", n)
			shade := 0
			if n > 0 && total > 0 {
				shade = 1 + int(n/total*float64(len(heatShades)-2))
				if shade >= len(heatShades) {
					shade = len(heatShades) - 1
				}
			}
			heat[i] = heatShades[shade]
		}
		stat := func(s string) float64 {
			v, _ := findGauge(snap, "wear_erase_count", obs.Labels{
				"layer": "flash", "device": device, "bank": bank, "stat": s,
			})
			return v
		}
		row += fmt.Sprintf(" | %6.0f %7.2f %6.0f | %s", stat("max"), stat("mean"), stat("p99"), heat)
		fmt.Fprintln(w, row)
	}
	return nil
}
