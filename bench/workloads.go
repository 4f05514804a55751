package main

import (
	"fmt"
	"strconv"

	"ssmobile/internal/workload"
)

// clients is the number of concurrent callers in every workload: one
// tenant each, one TCP connection each on the wire drive. It equals the
// box's CPU count — each caller waits for its reply, so more callers
// than CPUs would only measure the scheduler.
const clients = 2

// spec is one benchmark workload: the card it runs on, the traffic it
// offers, and the frozen constants of its simulated-rate ladder.
type spec struct {
	name string
	// why is the reason the workload exists — the layer it loads and
	// the layers it bypasses (BENCHMARK.json carries the same line).
	why string

	// Card and service shape, as cmd/ssmserve flags.
	nodes                     int
	engine                    string
	dramMB, flashMB, bufferMB int64
	idleClean                 int

	// load is the per-client traffic; Seed, Clients, OpsPerClient and
	// RatePerClient are filled per drive.
	load workload.Config

	// rate is the reference per-client open-loop arrival rate r of the
	// sim drive (virtual ops/s); the ladder runs r/2, r and 2r.
	// p99LimitMs is the latency limit a rung must meet. Both were frozen
	// from one calibration pass on the seed code (see README.md): r is a
	// rate the seed code serves with zero shed, the limit is twice the
	// p99 measured there, rounded up.
	rate       float64
	p99LimitMs float64
	// rungOps is the number of requests per client in one ladder rung at
	// the standard run length; it scales with -seconds.
	rungOps int
	// chunkOps is the number of consecutive requests of the sim drive
	// whose host time is summed into one chunk, sized so that a chunk is
	// about a millisecond on the seed code: short enough that the speed
	// probes either side of it saw the box it ran on.
	chunkOps int
}

// serveFlags renders the workload's card as cmd/ssmserve flags.
func (s spec) serveFlags() []string {
	return []string{
		"-nodes", strconv.Itoa(s.nodes),
		"-engine", s.engine,
		"-dram", strconv.FormatInt(s.dramMB, 10),
		"-flash", strconv.FormatInt(s.flashMB, 10),
		"-buffer", strconv.FormatInt(s.bufferMB, 10),
		"-idle-clean", strconv.Itoa(s.idleClean),
	}
}

// workloadConfig is the generator configuration of one drive: open-loop
// arrivals at rate virtual ops/s per client. The wire drive uses the
// same streams and ignores the arrival times (its callers send the next
// request as soon as the previous reply is checked); kind, key, offset
// and size draw from their own forked streams, so both drives see the
// same requests.
func (s spec) workloadConfig(seed int64, opsPerClient int, rate float64) workload.Config {
	cfg := s.load
	cfg.Seed = seed
	cfg.Clients = clients
	cfg.OpsPerClient = opsPerClient
	cfg.Arrival = workload.OpenLoop
	cfg.RatePerClient = rate
	return cfg
}

// specs lists the six workloads. Sizes are the ISSUE's; where a
// workload was resized to load the layer it was built for, README.md
// says so.
var specs = []spec{
	{
		name:  "wire_hot",
		why:   "1 MB hot set the write buffer absorbs: storage does almost nothing, so the TCP codec, syscalls and Server.mu dominate; an engine change must show nothing here",
		nodes: 1, engine: "ftl", dramMB: 8, flashMB: 32, bufferMB: 2, idleClean: 8,
		load: workload.Config{
			Keys: 32, ObjectBytes: 16 << 10, MinWriteBytes: 256, MaxWriteBytes: 1024,
			Mix:        workload.Mix{Read: 0.90, Write: 0.10},
			Popularity: workload.Zipf,
		},
		rate: 50, p99LimitMs: 3500, rungOps: 250000, chunkOps: 500,
	},
	{
		name:  "scan_read",
		why:   "64 KB reads in place from flash over a set 4x the write buffer: the wire/fs/storman/flash path used per byte, not per request; an added copy loses here",
		nodes: 1, engine: "ftl", dramMB: 16, flashMB: 128, bufferMB: 4, idleClean: 8,
		load: workload.Config{
			Keys: 32, ObjectBytes: 256 << 10, MinWriteBytes: 64 << 10, MaxWriteBytes: 64 << 10,
			Mix:        workload.Mix{Read: 0.995, Write: 0.005},
			Popularity: workload.Uniform,
		},
		rate: 1, p99LimitMs: 40, rungOps: 20000, chunkOps: 50,
	},
	{
		name:  "churn_ftl",
		why:   "small overwrites at 75% card utilisation on ftl: cleaning is on the critical path, so the flash model and victim selection carry host cost, write amp and erases",
		nodes: 1, engine: "ftl", dramMB: 16, flashMB: 128, bufferMB: 4, idleClean: 16,
		load: workload.Config{
			Keys: 96, ObjectBytes: 512 << 10, MinWriteBytes: 512, MaxWriteBytes: 4096,
			Mix:        workload.Mix{Read: 0.15, Write: 0.80, Sync: 0.05},
			Popularity: workload.Uniform,
		},
		rate: 1, p99LimitMs: 40000, rungOps: 12000, chunkOps: 40,
	},
	{
		name:  "churn_pdl",
		why:   "the churn_ftl traffic and card on the pdl engine: the head-to-head a shared block-substrate refactor must hold on both sides",
		nodes: 1, engine: "pdl", dramMB: 16, flashMB: 128, bufferMB: 4, idleClean: 16,
		load: workload.Config{
			Keys: 96, ObjectBytes: 512 << 10, MinWriteBytes: 512, MaxWriteBytes: 4096,
			Mix:        workload.Mix{Read: 0.15, Write: 0.80, Sync: 0.05},
			Popularity: workload.Uniform,
		},
		rate: 1, p99LimitMs: 40000, rungOps: 12000, chunkOps: 25,
	},
	{
		name:  "meta_sync",
		why:   "4000 small objects with deletes, truncates and 15% syncs: fs checkpoint encoding and metadata flash traffic dominate both currencies",
		nodes: 1, engine: "ftl", dramMB: 8, flashMB: 32, bufferMB: 2, idleClean: 8,
		load: workload.Config{
			Keys: 2000, ObjectBytes: 2 << 10, MinWriteBytes: 256, MaxWriteBytes: 2048,
			Mix:        workload.Mix{Read: 0.30, Write: 0.40, Truncate: 0.05, Delete: 0.10, Sync: 0.15},
			Popularity: workload.Zipf,
		},
		rate: 2, p99LimitMs: 11000, rungOps: 6000, chunkOps: 10,
	},
	{
		name:  "cluster3",
		why:   "default mix through a 3-node router with one replica: routing, replication fan-out and health sweeps do the host work; every other workload bypasses internal/cluster",
		nodes: 3, engine: "ftl", dramMB: 8, flashMB: 32, bufferMB: 2, idleClean: 8,
		load: workload.Config{
			Keys: 64, ObjectBytes: 32 << 10, MinWriteBytes: 4096, MaxWriteBytes: 4096,
			Mix:        workload.Mix{Read: 0.55, Write: 0.35, Truncate: 0.02, Delete: 0.03, Sync: 0.05},
			Popularity: workload.Zipf,
		},
		rate: 2, p99LimitMs: 6000, rungOps: 5000, chunkOps: 10,
	},
}

// findSpec returns the named workload.
func findSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}
