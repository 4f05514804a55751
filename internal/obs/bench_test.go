package obs

import (
	"testing"

	"ssmobile/internal/sim"
)

// Benchmarks guarding the fast paths the layers hit on every operation.
// The nil-observer and no-tracer cases are the uninstrumented runs — they
// must stay allocation-free and near-zero cost, because every device op
// in every experiment pays them. The in-context case is the fully traced
// request path; its cost is what BenchmarkTracedServeThroughput's delta
// over BenchmarkServeThroughput reflects end to end.

func BenchmarkNilObserverSpan(b *testing.B) {
	var o *Observer
	clock := sim.NewClock()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := o.StageSpan(clock, nil, "flash", "read", StageFlash)
		sp.End(4096, nil)
	}
}

func BenchmarkNilObserverCounter(b *testing.B) {
	var o *Observer
	c := o.Counter("ops_total", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkNoTracerSpan(b *testing.B) {
	// An observer carrying only a registry: spans are disabled, metrics on.
	o := &Observer{Registry: NewRegistry()}
	clock := sim.NewClock()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := o.StageSpan(clock, nil, "flash", "read", StageFlash)
		sp.End(4096, nil)
	}
}

func BenchmarkSpanOutsideContext(b *testing.B) {
	o := New(1 << 10)
	clock := sim.NewClock()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := o.StageSpan(clock, nil, "flash", "read", StageFlash)
		clock.Advance(sim.Microsecond)
		sp.End(4096, nil)
	}
}

func BenchmarkSpanInContext(b *testing.B) {
	o := New(1 << 10)
	clock := sim.NewClock()
	tc := o.BeginRequest(clock, "server", "bench", 0)
	if tc == nil {
		b.Fatal("no context")
	}
	defer tc.Finish(0, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := o.StageSpan(clock, nil, "flash", "read", StageFlash)
		clock.Advance(sim.Microsecond)
		sp.End(4096, nil)
	}
}

func BenchmarkBeginFinishRequest(b *testing.B) {
	o := New(1 << 10)
	clock := sim.NewClock()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tc := o.BeginRequest(clock, "server", "bench", sim.Microsecond)
		tc.Finish(0, nil)
	}
}

// requestTree records a fixed 36-span request tree shaped like a traced
// 64 KB get that calls the engine and the device once per page: fs and
// storman spans around 17 × (engine read_page → flash read). A served get
// makes fewer calls, since a run of pages is one call per layer; the
// tree stays this size so the rung's numbers stay comparable.
func requestTree(o *Observer, clock *sim.Clock, meter *sim.EnergyMeter) {
	tc := o.BeginRequest(clock, "server", "get", 0)
	fs := o.Span(clock, meter, "fs", "read")
	sm := o.Span(clock, meter, "storman", "read")
	for i := 0; i < 17; i++ {
		eng := o.Span(clock, meter, "ftl", "read_page")
		dev := o.StageSpan(clock, meter, "flash", "read", StageFlash)
		clock.Advance(25 * sim.Microsecond)
		meter.Charge("flash.read", 100)
		dev.End(4096, nil)
		eng.End(4096, nil)
	}
	sm.End(64<<10, nil)
	fs.End(64<<10, nil)
	tc.Finish(64<<10, nil)
}

// BenchmarkRequestTree is one 64 KB get's span tree against the 64 K
// ring the serving binaries use, and against a registry-only observer —
// the denominator of the benchmark's obs.trace_overhead_pct.
func BenchmarkRequestTree(b *testing.B) {
	for _, c := range []struct {
		name string
		o    *Observer
	}{
		{"traced", New(DefaultTraceCapacity)},
		{"registry_only", &Observer{Registry: NewRegistry()}},
	} {
		b.Run(c.name, func(b *testing.B) {
			clock, meter := sim.NewClock(), sim.NewEnergyMeter()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				requestTree(c.o, clock, meter)
			}
		})
	}
}

// BenchmarkHistogramObserve is one latency sample into a registered
// series, the update a served request makes seven times: one
// request_latency_ns and six serve_latency_breakdown stages.
func BenchmarkHistogramObserve(b *testing.B) {
	h := New(0).Histogram("request_latency_ns", Labels{"layer": "server", "op": "get"})
	h.ObserveDuration(sim.Microsecond)
	h.ObserveDuration(sim.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ObserveDuration(sim.Duration(1000 + i%1_000_000))
	}
}

// requestSamples resolves the seven histograms a served request records
// into — its op's request_latency_ns and the six serve_latency_breakdown
// stages — with a latency and a breakdown to observe, each bucket already
// covered.
func requestSamples(r *Registry) (hs []*Histogram, vs []float64) {
	hs = []*Histogram{r.Histogram("request_latency_ns", Labels{"layer": "server", "op": "get"})}
	for _, stage := range BreakdownStages {
		hs = append(hs, r.Histogram("serve_latency_breakdown", Labels{"layer": "server", "stage": stage}))
	}
	vs = []float64{41_000, 0, 38_500, 0, 0, 0, 2_500}
	ObserveAll(hs, vs)
	return hs, vs
}

// BenchmarkObserveAll is a served request's seven latency samples in one
// call, the fold Session.Do makes; BenchmarkHistogramObserve is one of
// the seven alone.
func BenchmarkObserveAll(b *testing.B) {
	hs, vs := requestSamples(NewRegistry())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ObserveAll(hs, vs)
	}
}

// BenchmarkCounterAdd is one add on a layer's counter instance linked
// into a registered series, the update a served request makes for each
// count its layers keep.
func BenchmarkCounterAdd(b *testing.B) {
	c := New(0).Counter("ops_total", Labels{"layer": "flash", "op": "program"})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(4096)
	}
}
