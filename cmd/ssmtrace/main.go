// Command ssmtrace generates and inspects the synthetic workload traces
// that drive the experiments.
//
// Usage:
//
//	ssmtrace gen [-kind baker|pim|blocks] [-minutes M] [-seed N] [-o FILE]
//	ssmtrace stats [-metrics FILE] [FILE]
//	ssmtrace attribute [-top N] [-metrics FILE] [FILE]
//	ssmtrace wear [-device NAME] [FILE]
//	ssmtrace health [-device NAME] [-json] [FILE]
//	ssmtrace events [FILE]
//	ssmtrace fleet [-json] [FILE]
//
// All subcommands accept -cpuprofile/-memprofile for pprof profiles.
// Generated traces use the text format of internal/trace: one operation
// per line, "<time-ns> <kind> <file> <offset> <size>".
//
// attribute reads a span trace — either the JSONL sink written by
// -trace flags across the tools, or a flight-recorder dump from
// ssmserve — reconstructs each request's span tree, and prints the
// per-stage latency-attribution table (queue, buffer, flush, flash,
// clean, other) plus the -top slowest requests with their breakdowns.
//
// wear and health read a metrics snapshot — the JSON a -metrics flag
// dumps anywhere in the tools, or a /metrics-equivalent snapshot — and
// render the flash device's erase-count heatmap (per bank, bucketed) or
// its SMART-style health report: endurance budget, wear spread, windowed
// burn rate and the remaining lifetime at that rate. The health numbers
// are the same pure function of the snapshot the server's /debug/health
// serves live, so the two can never disagree.
//
// events replays a recorded cluster event journal — the JSONL stream
// /debug/events serves, or a flight-recorder dump (whose "events" field
// carries the journal) — as the same timeline table experiment E16
// prints. fleet reads a node-labelled metrics snapshot (the -metrics
// dump of a cluster-mode ssmserve run) and renders the cluster-wide
// health rollup /debug/fleet serves live, through the same
// cluster.FleetFromSnapshot pure function.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"ssmobile/internal/cluster"
	"ssmobile/internal/flash"
	"ssmobile/internal/obs"
	"ssmobile/internal/prof"
	"ssmobile/internal/sim"
	"ssmobile/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var run func([]string, *profFlags) error
	switch os.Args[1] {
	case "gen":
		run = gen
	case "stats":
		run = stats
	case "attribute":
		run = attribute
	case "wear":
		run = wear
	case "health":
		run = health
	case "events":
		run = events
	case "fleet":
		run = fleet
	default:
		usage()
	}

	var pf profFlags
	if err := runProfiled(os.Args[2:], &pf, run); err != nil {
		fmt.Fprintln(os.Stderr, "ssmtrace:", err)
		os.Exit(1)
	}
}

// profFlags carries the -cpuprofile/-memprofile values every subcommand
// registers on its own FlagSet.
type profFlags struct {
	cpu, mem string
}

func (p *profFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&p.cpu, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&p.mem, "memprofile", "", "write a heap profile to this file at exit")
}

// runProfiled runs a subcommand and writes any requested profiles before
// returning, whether the subcommand succeeded or not.
func runProfiled(args []string, pf *profFlags, run func([]string, *profFlags) error) error {
	err := run(args, pf)
	// pf is populated by the subcommand's flag parse inside run.
	if herr := prof.WriteHeap(pf.mem); herr != nil && err == nil {
		err = herr
	}
	return err
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: ssmtrace gen [-kind baker|pim|blocks] [-minutes M] [-seed N] [-o FILE]")
	fmt.Fprintln(os.Stderr, "       ssmtrace stats [-metrics FILE] [FILE]")
	fmt.Fprintln(os.Stderr, "       ssmtrace attribute [-top N] [-metrics FILE] [FILE]")
	fmt.Fprintln(os.Stderr, "       ssmtrace wear [-device NAME] [FILE]")
	fmt.Fprintln(os.Stderr, "       ssmtrace health [-device NAME] [-json] [FILE]")
	fmt.Fprintln(os.Stderr, "       ssmtrace events [FILE]")
	fmt.Fprintln(os.Stderr, "       ssmtrace fleet [-json] [FILE]")
	os.Exit(2)
}

// readSnapshot loads the metrics snapshot from the first positional
// argument, or stdin when none is given.
func readSnapshot(fs *flag.FlagSet) (obs.Snapshot, error) {
	var r io.Reader = os.Stdin
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return obs.Snapshot{}, err
		}
		defer f.Close()
		r = f
	}
	return obs.ReadSnapshot(r)
}

// wear renders the per-bank erase-count heatmap from a metrics snapshot.
func wear(args []string, pf *profFlags) error {
	fs := flag.NewFlagSet("wear", flag.ExitOnError)
	device := fs.String("device", "flash", "flash device (the MeterCategory label)")
	pf.register(fs)
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	stopCPU, err := prof.StartCPU(pf.cpu)
	if err != nil {
		return err
	}
	defer stopCPU()

	snap, err := readSnapshot(fs)
	if err != nil {
		return err
	}
	return flash.RenderWearHeatmap(os.Stdout, snap, *device)
}

// health prints the SMART-style device-health report from a metrics
// snapshot; -json emits the same JSON document /debug/health serves.
func health(args []string, pf *profFlags) error {
	fs := flag.NewFlagSet("health", flag.ExitOnError)
	device := fs.String("device", "flash", "flash device (the MeterCategory label)")
	asJSON := fs.Bool("json", false, "emit the report as JSON (the /debug/health document)")
	pf.register(fs)
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	stopCPU, err := prof.StartCPU(pf.cpu)
	if err != nil {
		return err
	}
	defer stopCPU()

	snap, err := readSnapshot(fs)
	if err != nil {
		return err
	}
	rep, err := flash.HealthFromSnapshot(snap, *device)
	if err != nil {
		return err
	}
	if *asJSON {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		return nil
	}
	rep.Fprint(os.Stdout)
	return nil
}

// events replays a recorded cluster event journal (the /debug/events
// JSONL stream, or a flight-recorder dump) as the E16 timeline table.
func events(args []string, pf *profFlags) error {
	fs := flag.NewFlagSet("events", flag.ExitOnError)
	pf.register(fs)
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	stopCPU, err := prof.StartCPU(pf.cpu)
	if err != nil {
		return err
	}
	defer stopCPU()

	var r io.Reader = os.Stdin
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	evs, dropped, err := obs.LoadEvents(r)
	if err != nil {
		return err
	}
	obs.FprintEvents(os.Stdout, evs, dropped)
	return nil
}

// fleet renders the cluster-wide health rollup from a node-labelled
// metrics snapshot; -json emits the same document /debug/fleet serves.
func fleet(args []string, pf *profFlags) error {
	fs := flag.NewFlagSet("fleet", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit the report as JSON (the /debug/fleet document)")
	pf.register(fs)
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	stopCPU, err := prof.StartCPU(pf.cpu)
	if err != nil {
		return err
	}
	defer stopCPU()

	snap, err := readSnapshot(fs)
	if err != nil {
		return err
	}
	rep, err := cluster.FleetFromSnapshot(snap)
	if err != nil {
		return err
	}
	if *asJSON {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		return nil
	}
	rep.Fprint(os.Stdout)
	return nil
}

func gen(args []string, pf *profFlags) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	kind := fs.String("kind", "baker", "workload kind: baker (office), pim (datebook), blocks (raw block)")
	minutes := fs.Int("minutes", 30, "trace duration in virtual minutes (baker, pim)")
	seed := fs.Int64("seed", 1993, "generator seed")
	ops := fs.Int("ops", 100000, "operation count (blocks)")
	blocks := fs.Int("blocks", 4096, "logical block count (blocks)")
	skew := fs.Float64("skew", 1.2, "zipf skew, 0 for uniform (blocks)")
	readFrac := fs.Float64("reads", 0.5, "read fraction (blocks)")
	out := fs.String("o", "", "output file (default stdout)")
	pf.register(fs)
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	stopCPU, err := prof.StartCPU(pf.cpu)
	if err != nil {
		return err
	}
	defer stopCPU()

	var tr *trace.Trace
	switch *kind {
	case "baker":
		tr, err = trace.GenerateBaker(trace.DefaultBaker(sim.Duration(*minutes)*sim.Minute, *seed))
	case "pim":
		tr, err = trace.GeneratePIM(trace.DefaultPIM(sim.Duration(*minutes)*sim.Minute, *seed))
	case "blocks":
		tr, err = trace.GenerateBlocks(trace.BlockConfig{
			Ops: *ops, Blocks: *blocks, ReadFrac: *readFrac, Skew: *skew, Seed: *seed,
		})
	default:
		return fmt.Errorf("unknown kind %q", *kind)
	}
	if err != nil {
		return err
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	_, err = tr.WriteTo(w)
	return err
}

// attribute reconstructs request span trees from a recorded trace and
// prints where each request's virtual time went.
func attribute(args []string, pf *profFlags) error {
	fs := flag.NewFlagSet("attribute", flag.ExitOnError)
	top := fs.Int("top", 5, "also list the N slowest requests with their breakdowns")
	metricsOut := fs.String("metrics", "", "also write the attributions as JSON to this file")
	pf.register(fs)
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	stopCPU, err := prof.StartCPU(pf.cpu)
	if err != nil {
		return err
	}
	defer stopCPU()

	var r io.Reader = os.Stdin
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	spans, dropped, err := obs.LoadSpans(r)
	if err != nil {
		return err
	}
	reqs, st := obs.Attribute(spans)
	fmt.Printf("spans:         %d (%d dropped at record time)\n", len(spans), dropped)
	fmt.Printf("requests:      %d\n", st.Requests)
	fmt.Printf("background:    %d spans outside any request\n", st.Background)
	if st.Orphans > 0 {
		fmt.Printf("orphans:       %d spans with no surviving root (ring overwrote it)\n", st.Orphans)
	}
	if len(reqs) == 0 {
		return nil
	}

	var total obs.Breakdown
	var cleans int
	for _, req := range reqs {
		total.Add(req.Breakdown)
		cleans += req.InducedCleans
	}
	sum := total.Total()
	fmt.Printf("induced cleans: %d\n", cleans)
	fmt.Printf("total attributed virtual time: %v\n", sum)
	for stage, d := range total {
		pct := 0.0
		if sum > 0 {
			pct = 100 * float64(d) / float64(sum)
		}
		fmt.Printf("  %-8s %12v  %5.1f%%\n", obs.Stage(stage), d, pct)
	}

	if *top > 0 {
		sorted := make([]obs.RequestAttribution, len(reqs))
		copy(sorted, reqs)
		sort.Slice(sorted, func(i, j int) bool {
			return sorted[i].Breakdown.Total() > sorted[j].Breakdown.Total()
		})
		if len(sorted) > *top {
			sorted = sorted[:*top]
		}
		fmt.Printf("slowest %d requests:\n", len(sorted))
		for _, req := range sorted {
			fmt.Printf("  %s/%s @%v total=%v spans=%d cleans=%d:",
				req.Root.Layer, req.Root.Op, req.Root.Start, req.Breakdown.Total(), req.Spans, req.InducedCleans)
			for stage, d := range req.Breakdown {
				if d > 0 {
					fmt.Printf(" %s=%v", obs.Stage(stage), d)
				}
			}
			fmt.Println()
		}
	}

	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Stats    obs.AttributionStats     `json:"stats"`
			Requests []obs.RequestAttribution `json:"requests"`
		}{st, reqs}); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}

func stats(args []string, pf *profFlags) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	metricsOut := fs.String("metrics", "", "also write the stats as JSON to this file")
	pf.register(fs)
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	stopCPU, err := prof.StartCPU(pf.cpu)
	if err != nil {
		return err
	}
	defer stopCPU()

	var r io.Reader = os.Stdin
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	tr, err := trace.ReadTrace(r)
	if err != nil {
		return err
	}
	s := tr.Stats()
	fmt.Printf("operations:    %d\n", s.Ops)
	fmt.Printf("  creates:     %d\n", s.Creates)
	fmt.Printf("  writes:      %d (%.1f MB)\n", s.Writes, float64(s.BytesWritten)/(1<<20))
	fmt.Printf("  reads:       %d (%.1f MB)\n", s.Reads, float64(s.BytesRead)/(1<<20))
	fmt.Printf("  deletes:     %d\n", s.Deletes)
	fmt.Printf("unique files:  %d\n", s.UniqueFiles)
	fmt.Printf("duration:      %v\n", s.Duration)
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}
