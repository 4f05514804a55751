package core

import (
	"fmt"
	"io"
)

// Experiment is one row of the suite: the id the CLI selects it by, the
// one-line summary `ssmsim list` prints, and the function that builds its
// table(s) under an execution environment (observer + scheduler; see
// engine.go), with every stochastic choice tied to seed.
type Experiment struct {
	ID      string
	Summary string
	Run     func(env *Env, seed int64) ([]*Table, error)
}

// Experiments is the suite, declared once and in print order — the order
// `ssmsim all` and `ssmsim list` emit and the goldens under testdata/ pin
// (e12b was added after e16 and prints after it). The CLI, the tests and
// BenchmarkExperiment all read this table. Experiments with several
// independent tables build them as one ForEach batch, so a parallel
// environment overlaps them.
var Experiments = []Experiment{
	{"e1", "device comparison (§2): DRAM/flash/disk latency, cost, power, plus battery life and full-stack context",
		func(env *Env, _ int64) ([]*Table, error) {
			return tableSet(env,
				E1DeviceComparison,
				func(*Env) (*Table, error) { return E1BatteryLife() },
				E1FullStack,
			)
		}},
	{"e2", "technology trends (§2): cost and density crossovers, 40MB flash vs disk by ~1996",
		func(*Env, int64) ([]*Table, error) { return one(E2CostCrossover()) }},
	{"e3", "write buffering (§3.3): battery-backed DRAM buffer absorbing 40-50% of write traffic",
		E3},
	{"e4", "read in place (§3.3): serving reads from flash without copying into DRAM",
		func(env *Env, _ int64) ([]*Table, error) { return one(E4ReadInPlace(env)) }},
	{"e5", "execute in place (§3.2): XIP from the code card vs demand paging from disk",
		func(env *Env, _ int64) ([]*Table, error) { return one(E5XIP(env)) }},
	{"e6", "wear leveling (§3.3): cleaning policies, device lifetime, static leveling",
		func(env *Env, seed int64) ([]*Table, error) {
			return tableSet(env,
				func(je *Env) (*Table, error) { return E6WearLeveling(je, seed) },
				func(je *Env) (*Table, error) { return E6Lifetime(je, seed) },
				func(je *Env) (*Table, error) { return E6Static(je, seed) },
			)
		}},
	{"e7", "banking and segregation (§3.3): parallel banks hiding erase latency, hot/cold separation",
		func(env *Env, seed int64) ([]*Table, error) {
			return tableSet(env,
				func(je *Env) (*Table, error) { return E7Banking(je, seed) },
				func(je *Env) (*Table, error) { return E7Segregation(je, seed) },
			)
		}},
	{"e8", "sizing (§3.3): DRAM buffer size against write-traffic reduction",
		func(env *Env, seed int64) ([]*Table, error) { return one(E8Sizing(env, seed)) }},
	{"e9", "end to end (§4): file workloads on the full solid-state vs disk organisations",
		func(env *Env, seed int64) ([]*Table, error) {
			return tableSet(env,
				func(je *Env) (*Table, error) { return E9EndToEnd(je, seed) },
				func(je *Env) (*Table, error) { return E9FlashParts(je, seed) },
			)
		}},
	{"e10", "crash recovery and battery (§3.1): recovery box after crashes and power failures",
		E10CrashAndBattery},
	{"e11", "recovery under power cuts (§3.1, §4): crash-point enumeration at every device op, with torn programs and interrupted erases",
		func(env *Env, _ int64) ([]*Table, error) { return one(E11PowerCuts(env)) }},
	{"e12", "serving-stack saturation (§3.3, §4): open-loop clients vs cleaning bandwidth through the object-storage service, with latency percentiles and load shedding",
		func(env *Env, seed int64) ([]*Table, error) { return one(E12Saturation(env, seed)) }},
	{"e13", "wear attribution over a lifetime (§3.3): years of bursty traffic age one card; write amplification decomposed by cause, wear spread, and the SMART-style health report's burn-rate lifetime",
		func(env *Env, seed int64) ([]*Table, error) { return one(E13WearAging(env, seed)) }},
	{"e14", "cluster scale-out (§4): the saturation workload sharded across N server nodes by consistent hash, with replicated writes, node-local shed retry, and health-driven rebalancing off an aging card",
		func(env *Env, seed int64) ([]*Table, error) { return one(E14Cluster(env, seed)) }},
	{"e15", "storage-engine head-to-head (§3.3): page-mapped FTL vs page-differential logging on an overwrite-heavy serving mix — throughput, tail latency, write amplification and erase load per backend",
		func(env *Env, seed int64) ([]*Table, error) { return one(E15EngineHeadToHead(env, seed)) }},
	{"e16", "fleet observability (§4): a cluster driven through cordon, kill and restart — the event journal's virtual-time timeline, per-holder replica latency decomposition, and the fleet health rollup aggregating per-card SMART reports",
		E16Fleet},
	{"e12b", "latency attribution at the knee (§3.3): request-scoped causal tracing decomposes the p99 into queue/buffer/flush/flash/clean stages and names the dominant stall",
		func(env *Env, seed int64) ([]*Table, error) { return one(E12bAttribution(env, seed)) }},
}

// one adapts a single-table experiment's result to the table list.
func one(t *Table, err error) ([]*Table, error) {
	if err != nil {
		return nil, err
	}
	return []*Table{t}, nil
}

// IDs lists the experiment ids in table order.
func IDs() []string {
	ids := make([]string, len(Experiments))
	for i, e := range Experiments {
		ids[i] = e.ID
	}
	return ids
}

// Run is the one way experiments are executed: it runs the experiments
// named by ids as a single ForEach batch under env — so a parallel
// environment overlaps them, and their sweep points, up to its bound —
// and prints their tables to w in the order given. Tables are buffered
// per experiment and per-job telemetry is merged in id order, so stdout,
// the metrics dump and the trace are byte-identical for any parallelism.
// An unknown id is rejected before anything runs. On a failing
// experiment, every experiment before the first failing id is still
// printed (and its telemetry merged), matching what a sequential run
// would have emitted before stopping.
func Run(w io.Writer, ids []string, seed int64, env *Env) error {
	results, err := runTables(ids, seed, env)
	for _, tables := range results {
		if tables == nil {
			break // first failing (or never-run) experiment
		}
		for _, t := range tables {
			t.Fprint(w)
		}
	}
	return err
}

// runTables is Run without the printing: the tables of each named
// experiment, in ids order.
func runTables(ids []string, seed int64, env *Env) ([][]*Table, error) {
	exps := make([]*Experiment, len(ids))
	for i, id := range ids {
		for j := range Experiments {
			if Experiments[j].ID == id {
				exps[i] = &Experiments[j]
				break
			}
		}
		if exps[i] == nil {
			return nil, fmt.Errorf("core: unknown experiment %q (have %v)", id, IDs())
		}
	}
	results := make([][]*Table, len(ids))
	err := env.ForEach(len(ids), func(i int, je *Env) error {
		tables, err := exps[i].Run(je, seed)
		if err != nil {
			return fmt.Errorf("experiment %s: %w", ids[i], err)
		}
		results[i] = tables
		return nil
	})
	return results, err
}
