// Sizing: the paper's §4 question as an interactive explorer — given a
// fixed memory budget, how should a mobile computer apportion it between
// battery-backed DRAM and flash? Sweeps the split for a chosen workload
// temperature and prints the tradeoff.
//
//	go run ./examples/sizing [-budget 40] [-hot 1.3] [-minutes 10]
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"

	"ssmobile/internal/core"
	"ssmobile/internal/sim"
	"ssmobile/internal/storman"
	"ssmobile/internal/trace"
)

func main() {
	budgetMB := flag.Int64("budget", 40, "total memory budget in MB")
	hot := flag.Float64("hot", 1.3, "write-workload skew (higher = smaller writable working set)")
	minutes := flag.Int("minutes", 10, "workload length in virtual minutes")
	seed := flag.Int64("seed", 1993, "workload seed")
	flag.Parse()

	cfg := trace.DefaultBaker(sim.Duration(*minutes)*sim.Minute, *seed)
	cfg.OverwriteFrac = 0.6
	cfg.HotSkew = *hot
	tr, err := trace.GenerateBaker(cfg)
	if err != nil {
		log.Fatal(err)
	}
	ts := tr.Stats()
	fmt.Printf("workload: %d ops, %.0fMB written, skew %.2f\n\n", ts.Ops,
		float64(ts.BytesWritten)/(1<<20), *hot)
	fmt.Printf("%-12s %-16s %-10s %-12s %-12s %s\n",
		"DRAM/flash", "flash MB written", "absorbed", "mean write", "energy", "outcome")

	budget := *budgetMB << 20
	for frac := 1; frac <= 4; frac++ {
		dramBytes := budget * int64(frac) / 5
		flashBytes := budget - dramBytes
		sys, err := core.NewSolidState(core.SolidStateConfig{
			DRAMBytes:   dramBytes,
			FlashBytes:  flashBytes,
			BufferBytes: dramBytes / 2,
		})
		if err != nil {
			log.Fatal(err)
		}
		st, err := core.Replay(nil, sys, tr)
		outcome := "ok"
		if err != nil {
			if errors.Is(err, storman.ErrNoFlash) || errors.Is(err, storman.ErrNoDRAM) {
				outcome = "OUT OF SPACE"
			} else {
				log.Fatal(err)
			}
		}
		ss := sys.Storage.Stats()
		fmt.Printf("%2d/%2dMB      %-16.1f %-10s %-12v %-12v %s\n",
			dramBytes>>20, flashBytes>>20,
			float64(ss.FlushedBytes)/(1<<20),
			fmt.Sprintf("%.0f%%", ss.Reduction()*100),
			sim.Duration(st.WriteLatency.Mean()),
			sys.Meter().Total(),
			outcome)
	}
	fmt.Println("\nRe-run with -hot 1.01 (large writable working set) or -hot 2.0 (tiny one)")
	fmt.Println("to see the best split move — the paper's point: 'the answer depends on the workload'.")
}
