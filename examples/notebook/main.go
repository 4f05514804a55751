// Notebook: a day-in-the-life office/engineering session — the workload
// the paper's introduction motivates — run twice, once on the solid-state
// organisation and once on the conventional disk organisation, printing a
// head-to-head comparison of latency and battery draw.
//
//	go run ./examples/notebook [-minutes 30] [-seed 1993]
package main

import (
	"flag"
	"fmt"
	"log"

	"ssmobile/internal/core"
	"ssmobile/internal/sim"
	"ssmobile/internal/trace"
)

func main() {
	minutes := flag.Int("minutes", 30, "session length in virtual minutes")
	seed := flag.Int64("seed", 1993, "workload seed")
	flag.Parse()

	tr, err := trace.GenerateBaker(trace.DefaultBaker(sim.Duration(*minutes)*sim.Minute, *seed))
	if err != nil {
		log.Fatal(err)
	}
	ts := tr.Stats()
	fmt.Printf("session: %d ops over %dmin — %d files, %.0fMB written, %.0fMB read\n\n",
		ts.Ops, *minutes, ts.UniqueFiles,
		float64(ts.BytesWritten)/(1<<20), float64(ts.BytesRead)/(1<<20))

	solid, err := core.NewSolidState(core.SolidStateConfig{
		DRAMBytes: 16 << 20, FlashBytes: 64 << 20, RBoxBytes: 4 << 20, SnapshotEvery: 2048,
	})
	if err != nil {
		log.Fatal(err)
	}
	dsys, err := core.NewDisk(core.DiskConfig{DRAMBytes: 16 << 20, DiskBytes: 64 << 20})
	if err != nil {
		log.Fatal(err)
	}

	type result struct {
		name string
		st   core.ReplayStats
	}
	var results []result
	for _, sys := range []core.System{solid, dsys} {
		st, err := core.Replay(nil, sys, tr)
		if err != nil {
			log.Fatalf("%s: %v", sys.Name(), err)
		}
		if err := sys.Sync(); err != nil {
			log.Fatal(err)
		}
		results = append(results, result{sys.Name(), st})
	}

	fmt.Printf("%-38s %12s %12s %12s %12s\n", "system", "read mean", "read p99", "write mean", "energy")
	for _, r := range results {
		fmt.Printf("%-38s %12v %12v %12v %12v\n",
			r.name,
			sim.Duration(r.st.ReadLatency.Mean()),
			sim.Duration(r.st.ReadLatency.P99),
			sim.Duration(r.st.WriteLatency.Mean()),
			r.st.EnergyTotal)
	}

	// What the session cost the flash card and the disk.
	fst := solid.Flash.Stats()
	fmt.Printf("\nflash wear this session: max erase count %d of %d guaranteed cycles\n",
		fst.MaxEraseCount, solid.Flash.Config().Params.EnduranceCycles)
	sessionsPerLifetime := "effectively unlimited"
	if fst.MaxEraseCount > 0 {
		sessionsPerLifetime = fmt.Sprintf("~%d sessions",
			solid.Flash.Config().Params.EnduranceCycles/fst.MaxEraseCount)
	}
	fmt.Printf("card lifetime at this rate: %s\n", sessionsPerLifetime)

	dst := dsys.Disk.Stats()
	fmt.Printf("disk this session: %v of seek time, %d spin-ups\n",
		sim.Duration(dst.SeekNs), dst.Spinups)

	// Battery impact: a 10Wh primary pack against each system's draw.
	fmt.Println("\nbattery outlook on a 10Wh pack at this duty cycle:")
	for _, r := range results {
		perHour := r.st.EnergyTotal.Joules() / (float64(*minutes) / 60)
		hours := 10.0 * 3600 / perHour
		fmt.Printf("  %-38s %.0f J/hour -> %.1f hours\n", r.name, perHour, hours)
	}
}
