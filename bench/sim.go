package main

import (
	"cmp"
	"slices"
	"time"

	"ssmobile/internal/server"
	"ssmobile/internal/sim"
	"ssmobile/internal/workload"
)

// rung is one step of a workload's rate ladder: a fresh stack, preloaded,
// driven open-loop at one fixed per-client rate.
type rung struct {
	simRun
	// rate is the per-client arrival rate in virtual ops/s.
	rate float64
	// setup is the host time to build the stack and preload it.
	setup time.Duration
	// p99 is over the exact per-request latencies; tail is the median
	// latency of the last twentieth of the requests.
	p99, tail sim.Duration
	// layer holds the layers' counts over the drive alone (preload
	// subtracted); gauges their end-of-run state.
	layer, gauges tally
}

// passes reports whether the rung met the workload's service objective:
// nothing shed, nothing wrong, p99 within the limit, and no backlog
// still growing at the end — a queue that is building pushes the last
// requests' median past the limit well before it drags the p99 of the
// whole run there.
func (r *rung) passes(s spec) bool {
	limit := sim.Duration(s.p99LimitMs * float64(sim.Millisecond))
	return r.shed == 0 && r.failed == 0 && r.p99 <= limit && r.tail <= limit
}

// loaded is a workload's stack, built and preloaded, with a session and
// a model per client: everything a drive needs.
type loaded struct {
	cfg workload.Config
	// chunk is the workload's host-time chunk, in requests.
	chunk    int
	st       *stack
	svc      server.Service
	sessions []server.RequestDoer
	models   []*model
	setup    time.Duration
}

// load builds the workload's stack and preloads it. The service is
// passed through wrap before anything uses it — the traced run's and the
// tests' seam for putting a shim around every Do; nil leaves it alone.
func load(s spec, cfg workload.Config, mkObs newObserver, wrap func(server.Service) server.Service) (*loaded, error) {
	t0 := time.Now()
	st, err := buildStack(s, mkObs)
	if err != nil {
		return nil, err
	}
	l := &loaded{cfg: cfg, chunk: s.chunkOps, st: st, svc: st.svc}
	if wrap != nil {
		l.svc = wrap(st.svc)
	}
	for i := 0; i < clients; i++ {
		sess, err := l.svc.OpenSession(tenantName(i))
		if err != nil {
			return nil, err
		}
		m := newModel()
		if _, err := preload(doerCaller{sess}, m, cfg, i); err != nil {
			return nil, err
		}
		l.sessions = append(l.sessions, sess)
		l.models = append(l.models, m)
	}
	l.setup = time.Since(t0)
	return l, nil
}

// run drives the configured requests through the loaded stack and reads
// the layers' counts for the drive alone.
func (l *loaded) run() *rung {
	r := &rung{rate: l.cfg.RatePerClient, setup: l.setup}
	before := readTally(l.st)
	r.simRun = drive(l.svc, l.cfg, l.chunk, l.sessions, l.models)
	r.layer = readTally(l.st).sub(before)
	r.gauges = readGauges(l.st)
	r.tail = quantile(sorted(r.lat[len(r.lat)-len(r.lat)/20:]), 0.5)
	r.p99 = quantile(sorted(r.lat), 0.99)
	return r
}

// hostNs is the host time inside Do of one typical pass over the passes'
// requests. Each chunk's time is first scaled to the probe's reference
// speed by the readings either side of it (probe.go), which takes out
// the spells in which the whole box runs slow; then, chunk by chunk, the
// median pass counts (the faster of two), which takes out what the probe
// does not see — an interrupt, a collector cycle landing on one pass and
// not on another — and a reading of the probe that was itself disturbed.
// The passes must have driven the same seed at the same rate and length,
// so their chunks cover identical work.
func hostNs(passes ...*rung) int64 {
	var total float64
	norm := make([]float64, len(passes))
	for k := range passes[0].chunkNs {
		for i, p := range passes {
			around := float64(p.probeNs[k]+p.probeNs[k+1]) / 2
			norm[i] = float64(p.chunkNs[k]) * probeRefNs / around
		}
		slices.Sort(norm)
		total += norm[(len(norm)-1)/2]
	}
	return int64(total)
}

// runRung loads the workload's stack and drives opsPerClient requests
// per client through it at rate. The error reports a stack that could
// not be set up; a reply the model contradicts is in the rung's counts
// and firstErr.
func runRung(s spec, seed int64, rate float64, opsPerClient int, mkObs newObserver) (*rung, error) {
	l, err := load(s, s.workloadConfig(seed, opsPerClient, rate), mkObs, nil)
	if err != nil {
		return nil, err
	}
	return l.run(), nil
}

// sorted returns an ascending copy of v.
func sorted[T cmp.Ordered](v []T) []T {
	c := slices.Clone(v)
	slices.Sort(c)
	return c
}

// quantile reads the q-quantile of an ascending sample by nearest rank.
func quantile[T any](sorted []T, q float64) T {
	var zero T
	if len(sorted) == 0 {
		return zero
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}
