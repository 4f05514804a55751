package obs

import (
	"testing"

	"ssmobile/internal/sim"
)

// The hot-path contract for pre-resolved metric handles: resolving a
// Counter or Histogram once at construction makes every subsequent
// Add/Observe allocation-free. Label-map formatting (metricKey,
// Labels.clone) happens only at resolve time — a handle held by a hot
// call site never formats labels per op.

func TestCounterAddAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	o := New(16)
	c := o.Counter("ops_total", Labels{"layer": "flash", "op": "program"})
	if a := testing.AllocsPerRun(1000, func() {
		c.Add(3)
		c.Inc()
	}); a != 0 {
		t.Fatalf("Counter.Add/Inc on a pre-resolved handle allocated %.1f per run", a)
	}
}

var counterSink *Counter

// Linking a layer's counter instance into an existing series allocates
// what a standalone NewCounter does (the counter and its label copy) and
// nothing more: the series' key is built on the stack, and the list
// link lives in the instance.
func TestCounterAttachAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	o := New(16)
	lbl := Labels{"layer": "flash", "op": "program"}
	o.Counter("ops_total", lbl)
	attach := testing.AllocsPerRun(100, func() { counterSink = o.Counter("ops_total", lbl) })
	standalone := testing.AllocsPerRun(100, func() { counterSink = NewCounter("ops_total", lbl) })
	if attach != standalone {
		t.Fatalf("attaching to a series allocated %.1f per run, NewCounter %.1f", attach, standalone)
	}
}

func TestHistogramObserveAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	o := New(16)
	h := o.Histogram("latency_ns", Labels{"layer": "flash"})
	// A sample outside the bucket array's range widens it; steady state
	// means the workload's range is covered. Warm the one the loop hits.
	for _, v := range []float64{0, 1, 1234, 5e6, 9e9} {
		h.Observe(v)
	}
	if a := testing.AllocsPerRun(1000, func() {
		h.Observe(1234)
		h.Observe(5e6)
		h.ObserveDuration(9_000_000_000)
	}); a != 0 {
		t.Fatalf("Histogram.Observe on a pre-resolved handle allocated %.1f per run", a)
	}
}

func TestObserveAllAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	hs, vs := requestSamples(NewRegistry())
	if a := testing.AllocsPerRun(1000, func() { ObserveAll(hs, vs) }); a != 0 {
		t.Fatalf("ObserveAll of a request's seven samples allocated %.1f per run", a)
	}
}

func TestGaugeSetAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	o := New(16)
	g := o.Gauge("queue_depth", Labels{"layer": "server"})
	if a := testing.AllocsPerRun(1000, func() {
		g.Set(7)
		g.Add(-2)
	}); a != 0 {
		t.Fatalf("Gauge.Set/Add on a pre-resolved handle allocated %.1f per run", a)
	}
}

// SetCause runs on every sync, daemon pass and cleaner invocation — an
// idle card sets the idle-clean cause once per tick — so setting and
// restoring a cause, nested or not, must allocate nothing.
func TestPushCanonicalCauseAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	o := New(16)
	if a := testing.AllocsPerRun(1000, func() {
		prev := o.SetCause(CauseMetadata)
		o.SetCause(o.SetCause(CauseIdleClean))
		o.SetCause(prev)
	}); a != 0 {
		t.Fatalf("setting a cause allocated %.1f per run", a)
	}
	if got := o.Cause(); got != CauseHostWrite {
		t.Fatalf("cause after the scopes closed: %v", got)
	}
}

// A warm traced request records its whole span tree without allocating:
// the context and its span stack are recycled, and every span is written
// straight into a ring slot.
func TestTracedRequestTreeAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	o := New(1 << 10) // one chunk, and the runs below wrap it
	clock, meter := sim.NewClock(), sim.NewEnergyMeter()
	requestTree(o, clock, meter)
	if a := testing.AllocsPerRun(100, func() { requestTree(o, clock, meter) }); a != 0 {
		t.Fatalf("a traced 36-span request allocated %.1f per run", a)
	}
	if o.Tracer.Dropped() == 0 {
		t.Fatal("the ring never wrapped")
	}
}
