package main

import (
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"time"
)

// rootDir is the checkout root: where `go build ./cmd/ssmserve` resolves
// and where build outputs and traces are written. The benchmark runs
// from there; the package's tests (which run in bench/) point it at "..".
var rootDir = "."

func buildDir() string { return filepath.Join(rootDir, ".bench_build") }
func outDir() string   { return filepath.Join(rootDir, "bench", "out") }

// wireSetups is how many times a run sets the served process up (start,
// connect, preload, sync): the last continues into the timed windows,
// the others are stopped at once. setup_s reports the median, so one
// slow process start does not read as a set-up regression.
const wireSetups = 3

// wireShare is the part of -seconds the wire drive's timed windows take
// together; the ladder's request counts are sized to fill the rest on
// the box the baseline was taken on.
const wireShare = 0.2

// cycle lists the sim rungs of a run as multiples of the reference rate;
// a wire window precedes every wireEvery-th of them. A run alternates
// the two drives so that each one's measurements are spread over the
// whole run instead of bunched at one end of it: the box this was built
// on slows down by a fifth to a half for anything from milliseconds to
// minutes at a time (a busy neighbour on the host — no steal, just a
// slower core). The wire metrics take the best of the windows. The sim
// drive's host time comes from the seven passes over the reference rate,
// which do identical work: probe-scaled, then chunk by chunk the median
// (hostNs). Most of a run goes to those passes, because that figure is
// the one wall-clock number steady enough to carry a bound.
var cycle = []float64{1, 1, 0.5, 1, 1, 2, 1, 1, 1}

const wireEvery = 3

// result is one workload's run: the metric values by name, plus the
// verdict the result line reports.
type result struct {
	spec      spec
	values    map[string]float64
	samples   map[string]int // sample count behind a metric, where it has one
	attempted int64
	failed    int64
	correct   bool
	// problems lists what made the run incorrect.
	problems  []string
	simDigest uint64
}

func newResult(s spec) *result {
	return &result{spec: s, values: map[string]float64{}, samples: map[string]int{}, correct: true}
}

func (r *result) fail(format string, a ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, a...))
}

// scaled sizes a request count for a run of the given length.
func scaled(n int, seconds float64) int {
	return max(int(float64(n)*seconds/standardSeconds), 100)
}

// window summarises timed wire windows: the best of each figure.
type window struct {
	opsPerS, p50, p99 float64
	samples           int
}

// runEndToEnd measures one workload untraced: the wire drive against the
// real binary for the wall-clock currency, and the rate ladder in process
// for the simulated currency and the simulator's own host cost.
func runEndToEnd(s spec, seed int64, seconds float64) (*result, error) {
	res := newResult(s)
	serve, err := buildServe()
	if err != nil {
		return nil, err
	}

	cfg := s.workloadConfig(seed, math.MaxInt32, s.rate)
	var wireSetup []time.Duration
	var p *served
	var cs []*wireClient
	for i := 0; i < wireSetups; i++ {
		t0 := time.Now()
		if p, err = startServe(serve.bin, s); err != nil {
			return nil, err
		}
		if cs, err = dialClients(p.addr, cfg); err != nil {
			p.kill()
			return nil, fmt.Errorf("wire set-up: %w", err)
		}
		wireSetup = append(wireSetup, time.Since(t0))
		if i < wireSetups-1 {
			closeClients(cs)
			if err := p.stop(); err != nil {
				res.fail("served process: %v", err)
			}
		}
	}

	windows := (len(cycle) + wireEvery - 1) / wireEvery
	span := time.Duration(wireShare * seconds * float64(time.Second) / float64(windows))
	// Sized for well over the fastest workload's rate, so appending a
	// sample never reallocates inside a window.
	est := int(span.Seconds()*100000) + 1024
	best := window{p50: math.Inf(1), p99: math.Inf(1), samples: math.MaxInt}
	var rungs []*rung
	var wire counts
	for i, mult := range cycle {
		if i%wireEvery == 0 {
			run := driveWire(cs, span, est)
			slices.Sort(run.rtt)
			best.opsPerS = max(best.opsPerS, float64(run.offered)/run.elapsed.Seconds())
			best.p50 = min(best.p50, us(quantile(run.rtt, 0.50)))
			best.p99 = min(best.p99, us(quantile(run.rtt, 0.99)))
			best.samples = min(best.samples, len(run.rtt))
			wire.add(run.counts)
		}

		r, err := runRung(s, seed, s.rate*mult, scaled(s.rungOps, seconds), serveObserver)
		if err != nil {
			p.kill()
			return nil, err
		}
		if r.firstErr != nil {
			res.fail("sim drive at %g ops/s/client: %v", r.rate, r.firstErr)
		}
		rungs = append(rungs, r)
	}
	rss, err := p.peakRSSMB()
	if err != nil {
		res.fail("peak rss: %v", err)
	}
	closeClients(cs)
	if err := p.stop(); err != nil {
		res.fail("served process: %v", err)
	}
	if wire.firstErr != nil {
		res.fail("wire drive: %v", wire.firstErr)
	}

	res.values["wall_ops_per_s"] = best.opsPerS
	res.values["wall_p50_us"] = best.p50
	res.values["wall_p99_us"] = best.p99
	res.values["peak_rss_mb"] = rss
	for _, m := range []string{"wall_ops_per_s", "wall_p50_us", "wall_p99_us"} {
		res.samples[m] = best.samples
	}

	// The passes over the reference rate serve the same requests to the
	// same fresh stack, so every simulated number must repeat.
	var refs []*rung
	var simSetup []time.Duration
	for i, r := range rungs {
		simSetup = append(simSetup, r.setup)
		if cycle[i] == 1 {
			refs = append(refs, r)
		}
	}
	ref := refs[0]
	for _, r := range refs[1:] {
		if r.digest != ref.digest {
			res.fail("two sim drives of one seed differ: digests %016x and %016x", ref.digest, r.digest)
		}
		ref.mallocs = min(ref.mallocs, r.mallocs)
	}
	res.simDigest = ref.digest
	res.values["setup_s"] = median(wireSetup).Seconds() + median(simSetup).Seconds()
	res.samples["setup_s"] = len(wireSetup) + len(simSetup)
	res.values["host_us_per_op"] = float64(hostNs(refs...)) / 1e3 / float64(ref.offered)
	res.values["host_allocs_per_op"] = float64(ref.mallocs) / float64(ref.offered)
	res.values["sim_p99_ms"] = float64(ref.p99) / 1e6
	for _, m := range []string{"host_us_per_op", "host_allocs_per_op", "sim_p99_ms"} {
		res.samples[m] = int(ref.offered)
	}
	// The highest rate that meets the objective; a workload that fails
	// even the lowest reads half of it, never 0.
	top := s.rate * 0.25
	for _, r := range rungs {
		if r.passes(s) && r.rate > top {
			top = r.rate
		}
	}
	res.values["sim_max_rate_ops"] = top * clients
	res.values["sim_write_amp"] = ratio(ref.layer["flash.bytes_programmed"], float64(ref.putBytes))
	res.values["sim_erases_per_kop"] = 1000 * ratio(ref.layer["flash.erases"], float64(ref.completed))
	res.values["sim_energy_mj_per_op"] = mj(ratio(ref.layer["energy_pj"], float64(ref.completed)))

	res.attempted = wire.offered + ref.offered
	res.failed = wire.shed + wire.failed + ref.shed + ref.failed
	res.values["fail_frac"] = ratio(float64(res.failed), float64(res.attempted))
	for _, v := range res.values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.fail("a metric is not a number")
		}
	}
	return res, nil
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

func median(ds []time.Duration) time.Duration {
	s := sorted(ds)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
