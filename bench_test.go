// Benchmarks regenerating every experiment in the paper-reproduction
// index (DESIGN.md §3). Each BenchmarkEn runs experiment En end to end and
// logs its table once, so
//
//	go test -bench=. -benchmem
//
// reproduces the full set of results. Key scalar outcomes are attached as
// custom benchmark metrics so shape regressions show up in benchstat.
package ssmobile_test

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"ssmobile/internal/core"
	"ssmobile/internal/obs"
	"ssmobile/internal/prof"
	"ssmobile/internal/server"
	"ssmobile/internal/sim"
	"ssmobile/internal/trace"
	"ssmobile/internal/workload"
)

const benchSeed = 1993

// logTables renders each table through b.Log exactly once per benchmark.
func logTables(b *testing.B, logged *bool, tables ...*core.Table) {
	if *logged {
		return
	}
	*logged = true
	for _, t := range tables {
		b.Log(t.String())
	}
}

func BenchmarkE1DeviceAccess(b *testing.B) {
	logged := false
	for i := 0; i < b.N; i++ {
		t, err := core.E1DeviceComparison(core.NewEnv(nil, 1))
		if err != nil {
			b.Fatal(err)
		}
		logTables(b, &logged, t)
	}
}

func BenchmarkE2CostCrossover(b *testing.B) {
	logged := false
	for i := 0; i < b.N; i++ {
		t, err := core.E2CostCrossover()
		if err != nil {
			b.Fatal(err)
		}
		logTables(b, &logged, t)
	}
}

func BenchmarkE3WriteBuffer(b *testing.B) {
	logged := false
	for i := 0; i < b.N; i++ {
		t, err := core.E3WriteBuffering(core.NewEnv(nil, 1), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		// Attach the 1MB-row reduction as a metric.
		for _, row := range t.Rows {
			if row[0] == "1MB" {
				v, _ := strconv.ParseFloat(strings.TrimSuffix(row[1], "%"), 64)
				b.ReportMetric(v, "%reduction@1MB")
			}
		}
		logTables(b, &logged, t)
	}
}

func BenchmarkE3FlushPolicyAblation(b *testing.B) {
	logged := false
	for i := 0; i < b.N; i++ {
		t, err := core.E3FlushPolicyAblation(core.NewEnv(nil, 1), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		logTables(b, &logged, t)
	}
}

func BenchmarkE3BlockSizeAblation(b *testing.B) {
	logged := false
	for i := 0; i < b.N; i++ {
		t, err := core.E3BlockSizeAblation(core.NewEnv(nil, 1), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		logTables(b, &logged, t)
	}
}

func BenchmarkE4ReadInPlace(b *testing.B) {
	logged := false
	for i := 0; i < b.N; i++ {
		t, err := core.E4ReadInPlace(core.NewEnv(nil, 1))
		if err != nil {
			b.Fatal(err)
		}
		logTables(b, &logged, t)
	}
}

func BenchmarkE5XIP(b *testing.B) {
	logged := false
	for i := 0; i < b.N; i++ {
		t, err := core.E5XIP(core.NewEnv(nil, 1))
		if err != nil {
			b.Fatal(err)
		}
		logTables(b, &logged, t)
	}
}

func BenchmarkE6WearLeveling(b *testing.B) {
	logged := false
	for i := 0; i < b.N; i++ {
		t, err := core.E6WearLeveling(core.NewEnv(nil, 1), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		logTables(b, &logged, t)
	}
}

func BenchmarkE6Lifetime(b *testing.B) {
	logged := false
	for i := 0; i < b.N; i++ {
		t, err := core.E6Lifetime(core.NewEnv(nil, 1), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		logTables(b, &logged, t)
	}
}

func BenchmarkE6StaticLeveling(b *testing.B) {
	logged := false
	for i := 0; i < b.N; i++ {
		t, err := core.E6Static(core.NewEnv(nil, 1), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		logTables(b, &logged, t)
	}
}

func BenchmarkE7Banking(b *testing.B) {
	logged := false
	for i := 0; i < b.N; i++ {
		t, err := core.E7Banking(core.NewEnv(nil, 1), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		logTables(b, &logged, t)
	}
}

func BenchmarkE7Segregation(b *testing.B) {
	logged := false
	for i := 0; i < b.N; i++ {
		t, err := core.E7Segregation(core.NewEnv(nil, 1), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		logTables(b, &logged, t)
	}
}

func BenchmarkE8Sizing(b *testing.B) {
	logged := false
	for i := 0; i < b.N; i++ {
		t, err := core.E8Sizing(core.NewEnv(nil, 1), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		logTables(b, &logged, t)
	}
}

func BenchmarkE9EndToEnd(b *testing.B) {
	logged := false
	for i := 0; i < b.N; i++ {
		t, err := core.E9EndToEnd(core.NewEnv(nil, 1), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		logTables(b, &logged, t)
	}
}

func BenchmarkE9FlashParts(b *testing.B) {
	logged := false
	for i := 0; i < b.N; i++ {
		t, err := core.E9FlashParts(core.NewEnv(nil, 1), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		logTables(b, &logged, t)
	}
}

func BenchmarkE10CrashAndBattery(b *testing.B) {
	logged := false
	for i := 0; i < b.N; i++ {
		tables, err := core.E10CrashAndBattery(core.NewEnv(nil, 1), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		logTables(b, &logged, tables...)
	}
}

// benchEngines parameterizes the serve benchmarks by storage backend,
// so `make bench` reports per-backend numbers side by side.
var benchEngines = []string{"ftl", "pdl"}

// BenchmarkServeThroughput drives the object-storage service (the E12
// serving stack) with a seeded 8-client open-loop workload and reports
// the served virtual-time throughput and tail latency as metrics, once
// per storage backend. It measures the Go cost of the whole
// fs→storman→engine→flash request path under multiplexed client load.
func BenchmarkServeThroughput(b *testing.B) {
	for _, eng := range benchEngines {
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
// against BenchmarkServeThroughput is the tracing overhead the PR's
// BENCH_pr5.json records; the served/shed/p99 metrics must be identical
// to the untraced run — tracing never alters simulated behaviour.
func BenchmarkTracedServeThroughput(b *testing.B) {
	for _, eng := range benchEngines {
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

// BenchmarkRunAllSerial and BenchmarkRunAllParallel run the entire
// experiment suite end to end, sequentially and on a GOMAXPROCS-wide
// worker pool. Their outputs are byte-identical (see
// internal/core/determinism_test.go); the only difference is wall time,
// which BenchmarkRunAllParallel reports as a "speedup" metric against a
// serial run measured in the same process.

func BenchmarkRunAllSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := core.RunAllParallel(io.Discard, benchSeed, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunAllParallel(b *testing.B) {
	serialStart := time.Now()
	if err := core.RunAllParallel(io.Discard, benchSeed, 1); err != nil {
		b.Fatal(err)
	}
	serial := time.Since(serialStart)

	par := runtime.GOMAXPROCS(0)
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if err := core.RunAllParallel(io.Discard, benchSeed, par); err != nil {
			b.Fatal(err)
		}
	}
	perOp := time.Since(start) / time.Duration(b.N)
	b.StopTimer()
	b.ReportMetric(float64(par), "workers")
	b.ReportMetric(serial.Seconds()/perOp.Seconds(), "speedup")
}

// Micro-benchmarks of the two storage organisations' hot paths: these
// measure the Go cost of the simulation itself (ops/sec of the simulator),
// useful when extending the models.

func BenchmarkSolidStateWritePath(b *testing.B) {
	sys, err := core.NewSolidState(core.SolidStateConfig{DRAMBytes: 16 << 20, FlashBytes: 64 << 20})
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.Create("bench"); err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.WriteAt("bench", int64(i%1024)*4096, data); err != nil {
			b.Fatal(err)
		}
		if err := sys.Tick(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolidStateReadPath(b *testing.B) {
	sys, err := core.NewSolidState(core.SolidStateConfig{DRAMBytes: 16 << 20, FlashBytes: 64 << 20})
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.Create("bench"); err != nil {
		b.Fatal(err)
	}
	if _, err := sys.WriteAt("bench", 0, make([]byte, 1<<20)); err != nil {
		b.Fatal(err)
	}
	if err := sys.Sync(); err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.ReadAt("bench", int64(i%256)*4096, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraceGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := trace.GenerateBaker(trace.DefaultBaker(10*sim.Minute, int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReplayOnSolidState(b *testing.B) {
	tr, err := trace.GenerateBaker(trace.DefaultBaker(2*sim.Minute, benchSeed))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, err := core.NewSolidState(core.SolidStateConfig{DRAMBytes: 16 << 20, FlashBytes: 64 << 20})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.Replay(sys, tr); err != nil {
			b.Fatal(err)
		}
	}
}
