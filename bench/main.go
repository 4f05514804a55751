// Command bench is the repo's benchmark: six named workloads, each run
// through a wire drive (the real ssmserve binary over loopback TCP, for
// the wall-clock currency) and a sim drive (the same seeded request
// streams through the service in process, in virtual time, for the
// simulated currency and the simulator's own host cost). A traced run
// (-trace 1) produces the per-layer numbers instead. Every reply in
// every drive is checked against a client-side shadow model. See
// README.md for the metric and workload tables.
//
// Usage (from the checkout root):
//
//	go run ./bench -seed N                  every workload, end to end
//	go run ./bench -seed N -trace 1         every workload, per layer
//	go run ./bench -workload W -seed N -seconds S -trace 0|1
//	go run ./bench -check                   schema and verifier self-check
//
// The last line printed for a workload is its result as one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

func main() {
	workloadName := flag.String("workload", "", "run one workload (default: all six in turn)")
	seed := flag.Int64("seed", 1993, "workload seed: the same seed gives the same requests")
	seconds := flag.Float64("seconds", standardSeconds, "measuring time per workload")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced run's per-layer metrics")
	check := flag.Bool("check", false, "run every workload at 1/20 length and validate names, schema and verifier")
	flag.Parse()
	if flag.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if *check {
		if err := runCheck(*seed); err != nil {
			fmt.Fprintln(os.Stderr, "bench -check:", err)
			os.Exit(1)
		}
		fmt.Println("bench -check: ok")
		return
	}

	run := specs
	if *workloadName != "" {
		s, err := findSpec(*workloadName)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		run = []spec{s}
	}
	ok := true
	for _, s := range run {
		res, err := runWorkload(s, *seed, *seconds, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", s.name, err)
			os.Exit(1)
		}
		defs := endToEnd
		if *trace == 1 {
			defs = perLayer
		}
		printTable(res, defs, *trace == 1)
		fmt.Println(resultLine(res, defs))
		ok = ok && res.correct
	}
	if !ok {
		os.Exit(1)
	}
}

// runWorkload runs one workload, traced or not.
func runWorkload(s spec, seed int64, seconds float64, traced bool) (*result, error) {
	if traced {
		return runTraced(s, seed, seconds)
	}
	return runEndToEnd(s, seed, seconds)
}

// printTable prints the run for a reader: every metric by name with its
// value, unit, direction, bound and sample count.
func printTable(res *result, defs []metricDef, traced bool) {
	kind := "end to end, tracing off"
	if traced {
		kind = "traced run, per layer"
	}
	fmt.Printf("== %s (%s) ==\n", res.spec.name, kind)
	fmt.Printf("%-40s %16s %-6s %-7s %-6s %s\n", "metric", "value", "unit", "better", "bound", "samples")
	all := defs
	if !traced {
		all = append(append([]metricDef(nil), defs...), alsoReported...)
	}
	for _, d := range all {
		bound, n := "-", "-"
		if d.bound > 0 {
			bound = fmt.Sprintf("%.0f%%", d.bound*100)
		}
		if c, ok := res.samples[d.name]; ok {
			n = fmt.Sprint(c)
		}
		fmt.Printf("%-40s %16.6g %-6s %-7s %-6s %s\n", d.name, res.values[d.name], d.unit, d.better, bound, n)
	}
	if !traced {
		fmt.Printf("sim_digest %016x\n", res.simDigest)
	}
	fmt.Printf("attempted %d, failed %d, correct %v\n", res.attempted, res.failed, res.correct)
	sort.Strings(res.problems)
	for _, p := range res.problems {
		fmt.Println("problem:", p)
	}
}

// resultLine renders the machine-readable result: exactly the keys
// correct, attempted, failed and metrics, with every value as measured.
func resultLine(res *result, defs []metricDef) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, res.attempted, res.failed, map[string]value{}}
	for _, d := range defs {
		out.Metrics[d.name] = value{res.values[d.name], d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		// Only a NaN or Inf can fail here, and the run already checks for
		// them; report it rather than print a malformed line.
		return fmt.Sprintf(`{"correct":false,"attempted":%d,"failed":%d,"metrics":{}}`, max(res.attempted, 1), res.failed)
	}
	return string(b)
}
