package core

import (
	"fmt"

	"ssmobile/internal/flash"
	"ssmobile/internal/obs"
	"ssmobile/internal/server"
	"ssmobile/internal/sim"
)

// E13WearAging ages one flash card through years of simulated use — bursts
// of mixed object traffic separated by quarter-long idle stretches — and
// tracks the two quantities the paper's endurance argument turns on as
// they evolve: write amplification, decomposed by wear-attribution cause
// (host writes, group-commit flushes, cleaner migration, idle cleaning,
// recovery, metadata), and the wear spread across blocks. Each epoch also
// snapshots the device-health report (flash.HealthFromSnapshot — the same
// pure function behind /debug/health and `ssmtrace health`), so the table
// doubles as a longitudinal SMART log: life consumed, and the lifetime
// left at the trailing-window burn rate.
//
// The run hard-errors unless the per-cause flash accounting is exact:
// bytes programmed summed over every cause must equal the device's total
// bytes programmed (and likewise for erases) after every epoch. The
// attribution is charged at the same completion sites as the totals, so
// any divergence is a bookkeeping bug, not noise.
//
// The cell runs against its own private observer (E12b's idiom): cause
// scopes need a live observer, and isolating the cell keeps the table
// byte-identical whether or not the caller enabled tracing.
func E13WearAging(env *Env, seed int64) (*Table, error) {
	const (
		epochs  = 8
		quarter = 91 * 24 * sim.Hour // idle gap between traffic bursts
		w       = 0.6                // write share of the mix
	)

	t := &Table{
		ID: "E13",
		Title: "wear & write-amp attribution over a device lifetime: cause-decomposed " +
			"amplification and wear spread as the card ages",
		Headers: []string{"epoch", "elapsed", "host MB", "WA", "host", "flush", "clean",
			"idle", "recov", "meta", "max", "spread", "used%", "life left"},
	}

	rows := make([][]string, epochs)
	err := env.ForEach(1, func(_ int, je *Env) error {
		priv := obs.New(1 << 12)
		// Start at the free-block margin, as E12b does: a card with months
		// of history, where every epoch's traffic must clean to make room.
		card, err := NewServedCard(ServedCardConfig{System: E12Card(priv), AgeBytes: 7 << 20})
		if err != nil {
			return err
		}
		sys, srv := card.Sys, card.Srv
		dev := sys.Flash
		for ep := 0; ep < epochs; ep++ {
			traffic := E12Traffic(seed+int64(ep), 4, 400, w)
			traffic.Keys, traffic.ObjectBytes = 40, 64<<10
			if _, err := server.RunWorkload(srv, traffic); err != nil {
				return fmt.Errorf("epoch %d: %w", ep, err)
			}

			// The acceptance check: cause-tagged accounting must be exact,
			// not approximate. Every completed program and erase was charged
			// to exactly one cause, so the sums must match the totals.
			ds := dev.Stats()
			var causeBytes, causeErases int64
			for _, c := range obs.Causes {
				causeBytes += dev.CauseBytesProgrammed(c)
				causeErases += dev.CauseErases(c)
			}
			if causeBytes != ds.BytesProgrammed {
				return fmt.Errorf("epoch %d: cause-attributed bytes %d != total programmed %d",
					ep, causeBytes, ds.BytesProgrammed)
			}
			if causeErases != ds.Erases {
				return fmt.Errorf("epoch %d: cause-attributed erases %d != total erases %d",
					ep, causeErases, ds.Erases)
			}

			// Health snapshot while the burst's burn rate is still inside
			// the trailing window — the same view a live scrape would get.
			rep, err := flash.HealthFromSnapshot(priv.Registry.Snapshot(), "flash")
			if err != nil {
				return fmt.Errorf("epoch %d: %w", ep, err)
			}
			fs := sys.FTL.Stats()
			waBy := func(c obs.Cause) string {
				if fs.HostBytesWritten == 0 {
					return "-"
				}
				return fmt.Sprintf("%.3f", float64(dev.CauseBytesProgrammed(c))/float64(fs.HostBytesWritten))
			}
			rows[ep] = []string{
				fmt.Sprintf("%d", ep+1),
				fmt.Sprintf("%.0fd", sim.Duration(sys.Clock().Now()).Seconds()/86400),
				fmt.Sprintf("%.1f", float64(fs.HostBytesWritten)/(1<<20)),
				fmt.Sprintf("%.3f", fs.WriteAmplification),
				waBy(obs.CauseHostWrite),
				waBy(obs.CauseGroupCommitFlush),
				waBy(obs.CauseCleanerMigrate),
				waBy(obs.CauseIdleClean),
				waBy(obs.CauseMountRecovery),
				waBy(obs.CauseMetadata),
				fmt.Sprintf("%.0f", rep.MaxEraseCount),
				fmt.Sprintf("%.2f", rep.WearSpread),
				fmt.Sprintf("%.3f", rep.LifeUsedPct),
				rep.Lifetime,
			}

			// A quarter of quiet: daemons drain the buffer and idle-clean,
			// then the card sits. The next burst lands on an older device.
			if err := srv.Idle(sys.Clock().Now() + sim.Time(quarter)); err != nil {
				return fmt.Errorf("epoch %d idle: %w", ep, err)
			}
		}
		je.Obs().Merge(priv)
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.addRows(rows)
	t.Notes = append(t.Notes,
		"one card aged through eight quarterly traffic bursts (4 open-loop clients, 60% writes, 4KB",
		"against 64KB Zipf objects) with ~91 idle days between bursts — about two years of virtual time;",
		"WA columns decompose write amplification by wear cause (flash bytes charged to the cause per",
		"host byte); they sum to WA exactly, and the run fails if the device's cause accounting ever",
		"disagrees with its program/erase totals;",
		"max/spread track per-block erase counts (spread = max − mean, the headroom wear leveling could",
		"still reclaim); used%/life-left come from the same health report /debug/health serves, with",
		"lifetime projected from the trailing-window burn rate while the burst is still in the window")
	return t, nil
}
