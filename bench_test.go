// The root benchmarks: the serve-path benchmarks that alloc_budget.txt
// gates (scripts/allocgate.sh), CI's bench-smoke runs and `make bench`
// profiles, and BenchmarkExperiment, which regenerates any experiment of
// the paper-reproduction index (DESIGN.md §3) from core.Experiments:
//
//	go test -run '^$' -bench 'BenchmarkExperiment/e3$' -benchtime 1x -v .
//
// The performance record itself is BENCHMARK.json + `go run ./bench`
// (bench/README.md), reported per PR in BENCH_prN.md.
package ssmobile_test

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ssmobile/internal/core"
	"ssmobile/internal/engine/backends"
	"ssmobile/internal/obs"
	"ssmobile/internal/prof"
	"ssmobile/internal/server"
	"ssmobile/internal/workload"
)

const benchSeed = 1993

// BenchmarkExperiment runs each experiment of the suite end to end
// through the one runner, sequentially, and logs its tables once.
func BenchmarkExperiment(b *testing.B) {
	for _, e := range core.Experiments {
		b.Run(e.ID, func(b *testing.B) {
			var out strings.Builder
			for i := 0; i < b.N; i++ {
				out.Reset()
				if err := core.Run(&out, []string{e.ID}, benchSeed, core.NewEnv(nil, 1)); err != nil {
					b.Fatal(err)
				}
			}
			b.Log(out.String())
		})
	}
}

// BenchmarkServeThroughput drives the object-storage service (the E12
// serving stack) with a seeded 8-client open-loop workload and reports
// the served virtual-time throughput and tail latency as metrics, once
// per storage backend. It measures the Go cost of the whole
// fs→storman→engine→flash request path under multiplexed client load.
func BenchmarkServeThroughput(b *testing.B) {
	for _, eng := range backends.Names {
		b.Run(eng, func(b *testing.B) {
			var st server.RunStats
			for i := 0; i < b.N; i++ {
				st = serveWorkload(b, eng, nil)
			}
			b.ReportMetric(st.CompletedRate(), "served-vop/s")
			b.ReportMetric(float64(st.Shed), "shed")
			b.ReportMetric(st.Lat.Quantile(0.99)/1e6, "p99-vms")
		})
	}
}

// BenchmarkTracedServeThroughput is BenchmarkServeThroughput with
// request-scoped tracing enabled end to end: every layer shares an
// explicit observer (live tracer), so every request is served under a
// trace context and every device op records a span. Comparing its ns/op
// against BenchmarkServeThroughput is the tracing overhead; the
// served/shed/p99 metrics must be identical to the untraced run — tracing
// never alters simulated behaviour.
func BenchmarkTracedServeThroughput(b *testing.B) {
	for _, eng := range backends.Names {
		b.Run(eng, func(b *testing.B) {
			var st server.RunStats
			for i := 0; i < b.N; i++ {
				st = serveWorkload(b, eng, obs.New(1<<16))
			}
			b.ReportMetric(st.CompletedRate(), "served-vop/s")
			b.ReportMetric(float64(st.Shed), "shed")
			b.ReportMetric(st.Lat.Quantile(0.99)/1e6, "p99-vms")
		})
	}
}

// serveWorkload builds a fresh serving stack over the named storage
// backend (optionally observed) and drives the standard 8-client
// benchmark workload through it once.
func serveWorkload(b *testing.B, engine string, o *obs.Observer) server.RunStats {
	b.Helper()
	card, err := core.NewServedCard(core.ServedCardConfig{System: core.SolidStateConfig{
		DRAMBytes: 8 << 20, FlashBytes: 16 << 20, BufferBytes: 1 << 20,
		IdleCleanBlocks: 24, Engine: engine, Obs: o,
	}})
	if err != nil {
		b.Fatal(err)
	}
	st, err := server.RunWorkload(card.Srv, workload.Config{
		Seed: benchSeed, Clients: 8, OpsPerClient: 200, Keys: 16,
		Popularity: workload.Zipf,
		Mix:        workload.Mix{Read: 0.55, Write: 0.35, Truncate: 0.02, Delete: 0.03, Sync: 0.05},
	})
	if err != nil {
		b.Fatal(err)
	}
	return st
}

// serveProfDir directs BenchmarkServeAllocProfile's pprof output.
var serveProfDir = flag.String("serveprof", "",
	"directory BenchmarkServeAllocProfile writes serve.cpu.pprof and serve.heap.pprof into")

// BenchmarkServeAllocProfile is BenchmarkServeThroughput instrumented
// for profiling: it captures a CPU profile across the timed loop and an
// allocation (heap) profile after it, both through internal/prof, so
// the serve path's host cost can be broken down function by function.
// Run it via `make bench` or directly:
//
//	go test -run xxx -bench BenchmarkServeAllocProfile -benchtime 10x \
//	    -serveprof /tmp/serveprof -memprofilerate=1 .
//	go tool pprof -sample_index=alloc_objects ssmobile.test /tmp/serveprof/serve.heap.pprof
//
// -memprofilerate=1 records every allocation exactly; the default rate
// samples one allocation per 512 KiB, which badly distorts object
// counts for the small objects that dominate this path. Without
// -serveprof the benchmark still runs and reports the usual metrics,
// so it stays safe under `go test -bench .`.
func BenchmarkServeAllocProfile(b *testing.B) {
	if *serveProfDir != "" {
		if err := os.MkdirAll(*serveProfDir, 0o755); err != nil {
			b.Fatal(err)
		}
		stop, err := prof.StartCPU(filepath.Join(*serveProfDir, "serve.cpu.pprof"))
		if err != nil {
			b.Fatal(err)
		}
		defer func() {
			if err := prof.WriteHeap(filepath.Join(*serveProfDir, "serve.heap.pprof")); err != nil {
				b.Fatal(err)
			}
		}()
		defer stop()
		b.ResetTimer()
	}
	var st server.RunStats
	for i := 0; i < b.N; i++ {
		st = serveWorkload(b, "ftl", nil)
	}
	b.ReportMetric(st.CompletedRate(), "served-vop/s")
	b.ReportMetric(st.Lat.Quantile(0.99)/1e6, "p99-vms")
}
