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
