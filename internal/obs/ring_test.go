package obs

import (
	"testing"

	"ssmobile/internal/sim"
)

func TestRateSamplerBasicWindowedRate(t *testing.T) {
	s := NewRateSampler(16, 10*sim.Second)
	// One increment per second, cumulative 1..20.
	for i := 1; i <= 20; i++ {
		s.Observe(sim.Time(i)*sim.Time(sim.Second), int64(i))
	}
	now := sim.Time(20 * sim.Second)
	// Value at now = 20, value at now-10s = 10 → 1 per second.
	if got := s.Rate(now); got != 1.0 {
		t.Fatalf("Rate = %v, want 1.0", got)
	}
}

func TestRateSamplerEarlyLife(t *testing.T) {
	s := NewRateSampler(16, sim.Minute)
	s.Observe(sim.Time(sim.Second), 5)
	s.Observe(sim.Time(2*sim.Second), 10)
	// Only two seconds have elapsed: the divisor is elapsed time, not the
	// full window, so the early rate is 10/2s = 5/s, not 10/60s.
	if got := s.Rate(sim.Time(2 * sim.Second)); got != 5.0 {
		t.Fatalf("early-life Rate = %v, want 5.0", got)
	}
}

func TestRateSamplerIdleDecaysToZero(t *testing.T) {
	s := NewRateSampler(16, 10*sim.Second)
	s.Observe(sim.Time(sim.Second), 100)
	// Long after the burst, the whole window is quiet.
	if got := s.Rate(sim.Time(5 * sim.Minute)); got != 0 {
		t.Fatalf("idle Rate = %v, want 0", got)
	}
}

func TestRateSamplerWraparound(t *testing.T) {
	// Capacity 4 with many more samples than slots: the ring must evict
	// oldest-first and keep answering with the retained suffix.
	s := NewRateSampler(4, 10*sim.Second)
	for i := 1; i <= 100; i++ {
		s.Observe(sim.Time(i)*sim.Time(sim.Second), int64(i)*10)
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	// Retained samples are t=97..100s (values 970..1000). The window's
	// left edge (t=90s) predates them all, so the baseline falls back to
	// the oldest retained value: (1000-970)/10s — an under-report of the
	// exact (1000-900)/10s, never an over-report.
	got := s.Rate(sim.Time(100 * sim.Second))
	want := 30.0 / 10.0
	if got != want {
		t.Fatalf("wrapped Rate = %v, want %v", got, want)
	}
	exact := 100.0 / 10.0
	if got > exact {
		t.Fatalf("wrapped Rate %v over-reports the exact rate %v", got, exact)
	}
}

func TestRateSamplerMonotonicity(t *testing.T) {
	s := NewRateSampler(8, sim.Minute)
	s.Observe(sim.Time(10*sim.Second), 10)
	// A sample from the past is dropped, not reordered.
	s.Observe(sim.Time(5*sim.Second), 99)
	if s.Len() != 1 {
		t.Fatalf("Len after stale sample = %d, want 1", s.Len())
	}
	// A sample at the same instant replaces the newest value.
	s.Observe(sim.Time(10*sim.Second), 12)
	if s.Len() != 1 {
		t.Fatalf("Len after same-instant sample = %d, want 1", s.Len())
	}
	if got := s.Rate(sim.Time(10 * sim.Second)); got != 1.2 {
		t.Fatalf("Rate after same-instant replace = %v, want 1.2 (12 over 10s)", got)
	}
}

func TestRateSamplerZeroValueAndNil(t *testing.T) {
	var s *RateSampler
	s.Observe(sim.Time(sim.Second), 1) // must not panic
	if got := s.Rate(sim.Time(sim.Second)); got != 0 {
		t.Fatalf("nil Rate = %v, want 0", got)
	}
	e := NewRateSampler(0, 0) // defaults
	if e.window != sim.Minute {
		t.Fatalf("default window = %v, want 1m", e.window)
	}
	if got := e.Rate(sim.Time(sim.Hour)); got != 0 {
		t.Fatalf("empty Rate = %v, want 0", got)
	}
}

func TestRateSamplerZeroAllocSteadyState(t *testing.T) {
	// The sampler sits on the flash program/erase path: once the ring is
	// warm, Observe and Rate must not allocate.
	s := NewRateSampler(64, sim.Minute)
	now := sim.Time(0)
	cum := int64(0)
	for i := 0; i < 128; i++ {
		now = now.Add(sim.Millisecond)
		cum++
		s.Observe(now, cum)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		now = now.Add(sim.Millisecond)
		cum++
		s.Observe(now, cum)
		_ = s.Rate(now)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Observe+Rate allocates %v per op, want 0", allocs)
	}
}

// BenchmarkRateSamplerObserve guards the sampler's cost and allocation
// count; CI runs it with -benchmem next to the nil-observer span bench.
func BenchmarkRateSamplerObserve(b *testing.B) {
	s := NewRateSampler(256, sim.Minute)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Observe(sim.Time(i)*sim.Time(sim.Microsecond), int64(i))
	}
}

// BenchmarkRateSamplerRate measures the windowed-rate query a scrape or
// health report pays per gauge collection.
func BenchmarkRateSamplerRate(b *testing.B) {
	s := NewRateSampler(256, sim.Minute)
	for i := 0; i < 1024; i++ {
		s.Observe(sim.Time(i)*sim.Time(sim.Millisecond), int64(i))
	}
	now := sim.Time(1024 * sim.Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Rate(now)
	}
}
