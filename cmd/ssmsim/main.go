// Command ssmsim runs the experiments that reproduce the claims of
// "Operating System Implications of Solid-State Mobile Computers"
// (Cáceres, Douglis, Li, Marsh; HotOS-IV 1993).
//
// Usage:
//
//	ssmsim [-seed N] [-parallel P] [-metrics FILE] [-trace-out FILE] [-trace-jsonl FILE] all
//	                                            run every experiment
//	ssmsim [flags] e1 e3 ...                    run selected experiments (one batch; ids from `ssmsim list`)
//	ssmsim list                                 list experiment ids and summaries
//	ssmsim replay -trace FILE [-system solid|disk|both]
//	                                            replay a trace (see ssmtrace)
//	ssmsim crash [-points N] [-fate before|during|after|all] [-engine ftl|pdl]
//	                                            enumerate power-cut crash points
//
// The crash subcommand replays the reference workload once per
// destructive flash operation, cutting power at that operation (torn
// programs, interrupted erases), remounting by device scan, and checking
// recovery invariants; it exits nonzero if any crash point violates
// them. -points bounds the sweep for quick runs; the default enumerates
// every operation. -engine selects the storage backend under test
// (ftl or pdl) — CI sweeps both.
//
// -parallel runs independent experiments and sweep configurations on a
// worker pool (default: GOMAXPROCS); output is byte-identical to
// -parallel 1 for any seed. -metrics dumps every layer's counters,
// gauges and histograms as JSON; -trace-out writes the retained op spans
// in Chrome trace_event format (open in chrome://tracing or
// https://ui.perfetto.dev); -trace-jsonl writes them as JSON lines.
// -cpuprofile/-memprofile write pprof profiles. See DESIGN.md for the
// experiment index and EXPERIMENTS.md for the paper-vs-measured record.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"ssmobile/internal/core"
	"ssmobile/internal/crashtest"
	"ssmobile/internal/flash"
	"ssmobile/internal/obs"
	"ssmobile/internal/prof"
	"ssmobile/internal/sim"
	"ssmobile/internal/trace"
)

func main() {
	seed := flag.Int64("seed", 1993, "workload seed (experiments are deterministic per seed)")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "worker-pool size for independent experiments and sweep points (1 = sequential; output is identical either way)")
	metricsOut := flag.String("metrics", "", "write a JSON metrics snapshot to this file at exit")
	traceOut := flag.String("trace-out", "", "write the op-span trace in Chrome trace_event format to this file")
	traceJSONL := flag.String("trace-jsonl", "", "write the op-span trace as JSON lines to this file")
	traceCap := flag.Int("trace-cap", 0, "span ring-buffer capacity (0 = default 65536; oldest spans drop first)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ssmsim [flags] all | list | replay ... | crash ... | <experiment id>...\n")
		fmt.Fprintf(os.Stderr, "experiments: %v\n", core.IDs())
		flag.PrintDefaults()
	}
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	stopCPU, err := prof.StartCPU(*cpuProfile)
	if err != nil {
		fatal(err)
	}

	// Every layer built anywhere in the process reports here; concurrent
	// jobs run under private observers that merge back deterministically.
	o := obs.New(*traceCap)
	obs.SetDefault(o)

	var runErr error
	switch args[0] {
	case "list":
		for _, e := range core.Experiments {
			fmt.Printf("%-4s %s\n", e.ID, e.Summary)
		}
	case "replay":
		runErr = replay(args[1:])
	case "crash":
		runErr = crash(args[1:])
	case "all":
		args = core.IDs()
		fallthrough
	default:
		runErr = core.Run(os.Stdout, args, *seed, core.NewEnv(o, *parallel))
	}

	// Dump telemetry and profiles even on a failed run: the metrics and
	// spans up to the failure are exactly what you need to debug it.
	if err := obs.DumpFiles(o, *metricsOut, *traceOut, *traceJSONL); err != nil {
		fmt.Fprintln(os.Stderr, "ssmsim:", err)
		if runErr == nil {
			runErr = err
		}
	}
	if err := prof.WriteHeap(*memProfile); err != nil {
		fmt.Fprintln(os.Stderr, "ssmsim:", err)
		if runErr == nil {
			runErr = err
		}
	}
	stopCPU()
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "ssmsim:", runErr)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ssmsim:", err)
	os.Exit(1)
}

// crash runs the crash-point enumeration: the reference workload is cut
// at every destructive flash op and recovered, and any violated
// guarantee fails the run. CI uses it to gate on crash consistency.
func crash(args []string) error {
	fs := flag.NewFlagSet("crash", flag.ExitOnError)
	points := fs.Int("points", 0, "max op indexes to enumerate (0 = every destructive op)")
	fate := fs.String("fate", "all", "cut fate: before, during, after, or all")
	eng := fs.String("engine", "ftl", "storage backend under test: ftl or pdl")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := crashtest.Config{MaxPoints: *points, Engine: *eng}
	switch *fate {
	case "before":
		cfg.Fates = []flash.Outcome{flash.CutBefore}
	case "during":
		cfg.Fates = []flash.Outcome{flash.CutDuring}
	case "after":
		cfg.Fates = []flash.Outcome{flash.CutAfter}
	case "all":
	default:
		return fmt.Errorf("crash: unknown -fate %q", *fate)
	}
	res, err := crashtest.Enumerate(cfg, crashtest.DefaultScript())
	if err != nil {
		return err
	}
	fmt.Printf("crash-point enumeration (%s engine): %d destructive ops, %d recoveries\n", cfg.Engine, res.DestructiveOps, res.PointsRun)
	fmt.Printf("  torn records rejected %d, blocks re-erased %d, blocks retired %d\n",
		res.CorruptRecords, res.ReErasedBlocks, res.RetiredBlocks)
	if len(res.Violations) == 0 {
		fmt.Println("  all recoveries upheld every invariant and data guarantee")
		return nil
	}
	for _, v := range res.Violations {
		fmt.Printf("  VIOLATION %s\n", v)
	}
	return fmt.Errorf("crash: %d of %d crash points violated recovery guarantees", len(res.Violations), res.PointsRun)
}

// replay runs a trace file against one or both storage organisations and
// prints a latency/energy summary.
func replay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	traceFile := fs.String("trace", "", "trace file (ssmtrace format; required)")
	system := fs.String("system", "both", "solid, disk, or both")
	dramMB := fs.Int64("dram", 16, "DRAM size in MB")
	secondaryMB := fs.Int64("secondary", 64, "flash/disk size in MB")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *traceFile == "" {
		return fmt.Errorf("replay: -trace is required")
	}
	f, err := os.Open(*traceFile)
	if err != nil {
		return err
	}
	tr, err := trace.ReadTrace(f)
	f.Close()
	if err != nil {
		return err
	}

	var systems []core.System
	if *system == "solid" || *system == "both" {
		s, err := core.NewSolidState(core.SolidStateConfig{
			DRAMBytes: *dramMB << 20, FlashBytes: *secondaryMB << 20,
			RBoxBytes: 4 << 20, SnapshotEvery: 2048,
		})
		if err != nil {
			return err
		}
		systems = append(systems, s)
	}
	if *system == "disk" || *system == "both" {
		d, err := core.NewDisk(core.DiskConfig{DRAMBytes: *dramMB << 20, DiskBytes: *secondaryMB << 20})
		if err != nil {
			return err
		}
		systems = append(systems, d)
	}
	if len(systems) == 0 {
		return fmt.Errorf("replay: unknown -system %q", *system)
	}
	for _, sys := range systems {
		st, err := core.Replay(sys, tr)
		if err != nil {
			return fmt.Errorf("%s: %w", sys.Name(), err)
		}
		fmt.Printf("%s:\n", sys.Name())
		fmt.Printf("  ops %d, wrote %.1fMB, read %.1fMB over %v\n",
			st.Ops, float64(st.BytesWritten)/(1<<20), float64(st.BytesRead)/(1<<20), st.Elapsed)
		fmt.Printf("  read  mean %v  p99 %v\n",
			sim.Duration(st.ReadLatency.Mean()), sim.Duration(st.ReadLatency.Quantile(0.99)))
		fmt.Printf("  write mean %v  p99 %v\n",
			sim.Duration(st.WriteLatency.Mean()), sim.Duration(st.WriteLatency.Quantile(0.99)))
		fmt.Printf("  energy %v\n", st.EnergyTotal)
	}
	return nil
}
