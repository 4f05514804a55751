package obs

import "testing"

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

func TestHistogramObserveAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	o := New(16)
	h := o.Histogram("latency_ns", Labels{"layer": "flash"})
	// First contact with a bucket inserts a map entry; steady state means
	// the workload's buckets exist. Warm the ones the loop hits.
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

// PushCause runs on every sync, daemon pass and cleaner invocation — an
// idle card pushes the idle-clean cause once per tick — so pushing and
// restoring a canonical cause, nested or not, must allocate nothing.
func TestPushCanonicalCauseAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	o := New(16)
	o.PushCause(CauseIdleClean)() // builds the cached restore closures
	if a := testing.AllocsPerRun(1000, func() {
		restore := o.PushCause(CauseMetadata)
		o.PushCause(CauseIdleClean)()
		restore()
	}); a != 0 {
		t.Fatalf("pushing a canonical cause allocated %.1f per run", a)
	}
	if got := o.Cause(); got != CauseHostWrite {
		t.Fatalf("cause after the scopes closed: %q", got)
	}
}
