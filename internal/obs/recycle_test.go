package obs

import (
	"testing"

	"ssmobile/internal/sim"
)

// The recycling contract for pooled trace contexts: FinishOutcome parks
// the context in the observer's spare slot and BeginRequest hands it
// back fully reset — no stale span parents, no leftover stage charges,
// no frames from the previous request.

func TestTraceContextRecycleFullyReset(t *testing.T) {
	o := New(64)
	clock := sim.NewClock()

	// First request: nest spans and accrue stage time so every recycled
	// field would be visibly stale if reset were incomplete.
	tc1 := o.BeginRequest(clock, "server", "put", 3*sim.Millisecond)
	if tc1 == nil {
		t.Fatal("BeginRequest returned nil with a live tracer")
	}
	clock.Advance(1 * sim.Millisecond)
	sp := o.Span(clock, nil, "fs", "write")
	clock.Advance(2 * sim.Millisecond)
	spInner := o.Span(clock, nil, "ftl", "program")
	clock.Advance(4 * sim.Millisecond)
	spInner.End(0, nil)
	sp.End(0, nil)
	root1 := tc1.Root()
	bd1 := tc1.Finish(128, nil)
	if bd1.Total() == 0 {
		t.Fatal("first request accrued no time")
	}

	// Second request must reuse the parked context (steady-state pooling)
	// yet behave exactly like a fresh one.
	tc2 := o.BeginRequest(clock, "server", "get", 0)
	if tc2 != tc1 {
		t.Fatal("second BeginRequest did not recycle the parked context")
	}
	if tc2.Root() == root1 {
		t.Fatal("recycled context kept the previous request's root span ID")
	}
	if len(tc2.stack.frames) != 1 || tc2.stack.frames[0].id != tc2.Root() {
		t.Fatalf("recycled context has stale frames: %+v", tc2.stack.frames)
	}
	for i, d := range tc2.stages {
		if want := sim.Duration(0); Stage(i) != StageQueue && d != want {
			t.Fatalf("recycled context kept stage charge %v=%v", Stage(i), d)
		}
	}
	root2 := tc2.Root()
	clock.Advance(5 * sim.Millisecond)
	o.Span(clock, nil, "fs", "read").End(0, nil)
	bd2 := tc2.Finish(0, nil)
	if bd2[StageQueue] != 0 {
		t.Fatalf("recycled context kept the previous queue delay: %v", bd2[StageQueue])
	}

	// The recorded spans must form two disjoint trees: nothing from the
	// second request may point at the first request's IDs. Span IDs are
	// allocated monotonically, so request 2's spans all have ID >= root2.
	var seenRequest2 bool
	for _, s := range o.Tracer.Spans() {
		if s.ID < root2 {
			continue
		}
		seenRequest2 = true
		if s.Parent == root1 || s.FollowFrom == root1 {
			t.Fatalf("span %d of request 2 references request 1's root: %+v", s.ID, s)
		}
	}
	if !seenRequest2 {
		t.Fatal("second request recorded no spans")
	}
}

// A context parked by one request and reused across many must never
// accumulate frame state: drive a burst of nested requests and verify
// the spare context always comes back with a clean single-frame stack.
func TestTraceContextRecycleBurst(t *testing.T) {
	o := New(64)
	clock := sim.NewClock()
	for i := 0; i < 100; i++ {
		tc := o.BeginRequest(clock, "server", "op", 0)
		if tc == nil {
			t.Fatal("BeginRequest returned nil")
		}
		var open [3]SpanRef
		for depth := range open {
			clock.Advance(sim.Microsecond)
			open[depth] = o.Span(clock, nil, "fs", "step")
		}
		if got := len(tc.stack.frames); got != 4 {
			t.Fatalf("iteration %d: frame stack depth %d, want 4", i, got)
		}
		for depth := len(open) - 1; depth >= 0; depth-- {
			open[depth].End(0, nil)
		}
		tc.Finish(0, nil)
		if parked := o.ctxFree; parked == nil || len(parked.stack.frames) != 0 {
			t.Fatalf("iteration %d: parked context not reset", i)
		}
	}
}
