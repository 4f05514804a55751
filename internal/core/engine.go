package core

import (
	"sync"

	"ssmobile/internal/obs"
)

// The parallel experiment engine.
//
// Every experiment — and every independent configuration inside a sweep
// experiment — is a pure function of (seed, virtual clock): simulations
// share no mutable state, so they can run concurrently as long as their
// telemetry does not collide. The engine makes that structural: each job
// runs under its own Env carrying a private obs.Observer, and the parent
// merges the children back IN JOB INDEX ORDER once the batch completes.
// Because merge order is fixed and every merge operation is
// order-preserving (counters add, histograms merge sample-exactly,
// gauges adopt the most recent instance, tracer rings re-record in
// sequence), the telemetry a parallel run dumps is byte-identical to the
// sequential run's — however the scheduler interleaved the work.
//
// Concurrency is bounded by a token pool sized to the requested
// parallelism. A job that fans out again (an experiment running its
// sweep configurations) yields its own token while it waits on children,
// so nested ForEach calls never deadlock and never exceed the bound.

// Env is the execution context a job runs under: a private observer for
// its telemetry and the shared scheduler for nested fan-out. A nil Env
// behaves like a serial environment with no observer.
type Env struct {
	obs     *obs.Observer
	sched   *sched
	holding bool // the goroutine running this env holds a worker token
}

// NewEnv returns a root environment writing telemetry to o (nil exports
// nothing) and running ForEach batches with up to parallel concurrent
// jobs (<=1 means strictly sequential).
func NewEnv(o *obs.Observer, parallel int) *Env {
	return &Env{obs: o, sched: newSched(parallel)}
}

// Obs reports the environment's observer; experiments pass it into every
// system and device they construct, so each job's layers report to that
// job's observer and nowhere else.
func (e *Env) Obs() *obs.Observer {
	if e == nil {
		return nil
	}
	return e.obs
}

// sched is a counting-semaphore worker pool.
type sched struct {
	tokens chan struct{}
}

// newSched returns a pool admitting par concurrent jobs, or nil (meaning
// "run sequentially") when par <= 1.
func newSched(par int) *sched {
	if par <= 1 {
		return nil
	}
	s := &sched{tokens: make(chan struct{}, par)}
	for i := 0; i < par; i++ {
		s.tokens <- struct{}{}
	}
	return s
}

func (s *sched) acquire() { <-s.tokens }
func (s *sched) release() { s.tokens <- struct{}{} }

// childObs returns a fresh observer for one job, sized like the parent's
// (same trace capacity, so the merged ring retains exactly the spans a
// single shared ring would have). A nil parent means the run is
// uninstrumented and the child is too.
func childObs(parent *obs.Observer) *obs.Observer {
	if parent == nil {
		return nil
	}
	capacity := 0
	if parent.Tracer != nil {
		capacity = parent.Tracer.Capacity()
	}
	return obs.New(capacity)
}

// ForEach runs job(0..n-1), each under a child Env, and merges the
// children's telemetry into e in index order. Sequentially (nil Env or
// parallelism 1) jobs run in order and the first error stops the batch —
// the classic loop. In parallel all jobs run, but the result is
// normalized to the sequential contract: the error returned is the
// failing job with the LOWEST index, and only children up to and
// including that job are merged, so a failed parallel run leaves exactly
// the telemetry its sequential counterpart would have.
func (e *Env) ForEach(n int, job func(i int, je *Env) error) error {
	if n <= 0 {
		return nil
	}
	parent := e.Obs()
	var s *sched
	if e != nil {
		s = e.sched
	}
	if s == nil {
		for i := 0; i < n; i++ {
			je := &Env{obs: childObs(parent)}
			err := job(i, je)
			parent.Merge(je.obs)
			if err != nil {
				return err
			}
		}
		return nil
	}

	envs := make([]*Env, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	if e.holding {
		// Yield this job's token while its children run, so nested
		// fan-out cannot deadlock the pool or exceed the bound.
		s.release()
	}
	for i := 0; i < n; i++ {
		envs[i] = &Env{obs: childObs(parent), sched: s, holding: true}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.acquire()
			defer s.release()
			errs[i] = job(i, envs[i])
		}(i)
	}
	wg.Wait()
	if e.holding {
		s.acquire()
	}
	for i := 0; i < n; i++ {
		parent.Merge(envs[i].obs)
		if errs[i] != nil {
			return errs[i]
		}
	}
	return nil
}

// tableSet runs the given table builders as one ForEach batch and
// returns their tables in argument order.
func tableSet(env *Env, fns ...func(*Env) (*Table, error)) ([]*Table, error) {
	out := make([]*Table, len(fns))
	err := env.ForEach(len(fns), func(i int, je *Env) error {
		t, err := fns[i](je)
		if err != nil {
			return err
		}
		out[i] = t
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
