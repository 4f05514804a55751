package obs

import (
	"errors"
	"testing"
	"unsafe"

	"ssmobile/internal/sim"
)

// TestMergeGaugeFuncLiveness is the regression test for the Merge
// liveness bug: a merged read-through gauge must keep reading the SOURCE
// instance's function (live state), and a later merge of a plain gauge
// under the same key must clear that function — otherwise the stale
// read-through shadows the newer value forever and the merged gauge
// appears frozen at the old instance's state.
func TestMergeGaugeFuncLiveness(t *testing.T) {
	dst := NewRegistry()

	live := 7.0
	src := NewRegistry()
	src.GaugeFunc("free_blocks", nil, func() float64 { return live })
	dst.MergeLabeled(src, nil)

	if got := dst.Gauge("free_blocks", nil).Collect().Value; got != 7 {
		t.Fatalf("merged gauge = %v, want 7", got)
	}
	live = 3
	if got := dst.Gauge("free_blocks", nil).Collect().Value; got != 3 {
		t.Fatalf("merged gauge after source change = %v, want 3 (read-through must stay live)", got)
	}

	// A later instance registers the same gauge WITHOUT a function; its
	// plain value must win over the earlier merge's read-through.
	src2 := NewRegistry()
	src2.Gauge("free_blocks", nil).Set(42)
	dst.MergeLabeled(src2, nil)
	if got := dst.Gauge("free_blocks", nil).Collect().Value; got != 42 {
		t.Fatalf("merged plain gauge = %v, want 42 (stale read-through must be cleared)", got)
	}
	live = 99 // the old function must no longer be consulted
	if got := dst.Gauge("free_blocks", nil).Collect().Value; got != 42 {
		t.Fatalf("merged plain gauge = %v, want 42 after old source mutates", got)
	}
}

// TestMergeCountersAndHistograms pins the additive Merge semantics the
// parallel engine relies on.
func TestMergeCountersAndHistograms(t *testing.T) {
	dst := NewRegistry()
	dst.Counter("ops_total", nil).Add(5)

	src := NewRegistry()
	src.Counter("ops_total", nil).Add(3)
	src.Histogram("lat", nil).Observe(10)
	src.Histogram("lat", nil).Observe(20)

	dst.MergeLabeled(src, nil)
	if got := dst.Counter("ops_total", nil).Value(); got != 8 {
		t.Fatalf("merged counter = %d, want 8", got)
	}
	m := dst.Histogram("lat", nil).Collect()
	if m.Count != 2 || m.Sum != 30 {
		t.Fatalf("merged histogram count=%d sum=%v, want 2/30", m.Count, m.Sum)
	}
}

// driveRequest plays one synthetic request through a TraceContext the way
// the server stack does: a buffer hit, a flush containing a flash program,
// and an induced cleaner pass whose nested flash work must go sticky-clean.
// Virtual time advances only inside spans, as in the real simulation.
func driveRequest(o *Observer, clock *sim.Clock) Breakdown {
	tc := o.BeginRequest(clock, "server", "put", 5*sim.Microsecond)

	// Buffer hit: 2µs of DRAM time.
	sp := o.StageSpan(clock, nil, "dram", "write", StageBuffer)
	clock.Advance(2 * sim.Microsecond)
	sp.End(4096, nil)

	// Flush: 1µs of residue around a 3µs flash program.
	fl := o.StageSpan(clock, nil, "wbuf", "flush", StageFlush)
	clock.Advance(500 * sim.Nanosecond)
	dev := o.StageSpan(clock, nil, "flash", "program", StageFlash)
	clock.Advance(3 * sim.Microsecond)
	dev.End(4096, nil)
	clock.Advance(500 * sim.Nanosecond)
	fl.End(4096, nil)

	// Induced clean: everything beneath it is cleaning stall, including
	// the relocation program that would otherwise be StageFlash.
	cl := o.InducedSpan(clock, nil, "ftl", "clean", StageClean)
	clock.Advance(1 * sim.Microsecond)
	reloc := o.StageSpan(clock, nil, "flash", "program", StageFlash)
	clock.Advance(4 * sim.Microsecond)
	reloc.End(4096, nil)
	cl.End(0, nil)

	return tc.Finish(4096, nil)
}

// TestLiveBreakdownMatchesOfflineAttribution pins the property the whole
// attribution design rests on: the boundary accrual the live TraceContext
// performs equals the per-span exclusive-time reconstruction Attribute
// performs on the recorded trace.
func TestLiveBreakdownMatchesOfflineAttribution(t *testing.T) {
	o := New(256)
	clock := sim.NewClock()
	live := driveRequest(o, clock)

	want := Breakdown{
		StageQueue:  5 * sim.Microsecond,
		StageBuffer: 2 * sim.Microsecond,
		StageFlush:  1 * sim.Microsecond,
		StageFlash:  3 * sim.Microsecond,
		StageClean:  5 * sim.Microsecond, // 1µs clean pass + 4µs sticky relocation
	}
	if live != want {
		t.Fatalf("live breakdown = %+v, want %+v", live, want)
	}

	reqs, st := Attribute(o.Tracer.Spans())
	if st.Requests != 1 || st.Orphans != 0 {
		t.Fatalf("attribution stats = %+v, want 1 request, 0 orphans", st)
	}
	if reqs[0].Breakdown != live {
		t.Fatalf("offline breakdown = %+v, live = %+v; must be equal", reqs[0].Breakdown, live)
	}
	if reqs[0].InducedCleans != 1 {
		t.Fatalf("induced cleans = %d, want 1", reqs[0].InducedCleans)
	}
	if reqs[0].Spans != 6 {
		t.Fatalf("tree size = %d spans, want 6", reqs[0].Spans)
	}
	if got := reqs[0].Breakdown.Total(); got != live.Total() || got != 16*sim.Microsecond {
		t.Fatalf("total = %v, want 16µs", got)
	}
}

// A cluster router's holder spans overlap the request root instead of
// nesting in it, so attribution counts them as members but neither
// charges them nor subtracts them from the root: a 10 ms request with
// 10 ms and 8 ms holders is attributed 10 ms, as the live accrual says.
func TestAttributeIgnoresHolderSpans(t *testing.T) {
	o := New(16)
	clock := sim.NewClock()
	tc := o.BeginRequest(clock, "cluster", "put", sim.Millisecond)
	start := clock.Now()
	clock.Advance(10 * sim.Millisecond)
	tc.HolderSpan("n1", "primary", start, start.Add(10*sim.Millisecond), 0, OutcomeOK)
	tc.HolderSpan("n2", "replica", start, start.Add(8*sim.Millisecond), 0, OutcomeOK)
	live := tc.Finish(0, nil)

	reqs, st := Attribute(o.Tracer.Spans())
	if st.Requests != 1 || st.Orphans != 0 {
		t.Fatalf("attribution stats = %+v, want 1 request, 0 orphans", st)
	}
	req := reqs[0]
	if req.Spans != 3 {
		t.Fatalf("tree size = %d spans, want the root and both holders", req.Spans)
	}
	if req.Breakdown != live {
		t.Fatalf("offline breakdown = %+v, live = %+v; must be equal", req.Breakdown, live)
	}
	if got, want := req.Breakdown.Total(), req.Root.Queue+req.Root.Duration(); got != want || got != 11*sim.Millisecond {
		t.Fatalf("total = %v, want queue + root = %v (11ms)", got, want)
	}
}

// TestInducedSpanCarriesFollowFromAndStickyClean inspects the recorded
// spans directly: the induced clean links back to the request root, and
// the flash program nested inside it was resolved to the clean stage.
func TestInducedSpanCarriesFollowFromAndStickyClean(t *testing.T) {
	o := New(256)
	clock := sim.NewClock()
	driveRequest(o, clock)

	spans := o.Tracer.Spans()
	var root, clean, reloc *Span
	for i := range spans {
		sp := &spans[i]
		switch {
		case sp.Layer == "server":
			root = sp
		case sp.Op == "clean":
			clean = sp
		case sp.Op == "program" && sp.Stage == StageClean.String():
			reloc = sp
		}
	}
	if root == nil || clean == nil {
		t.Fatalf("missing root or clean span in %d recorded spans", len(spans))
	}
	if clean.FollowFrom != root.ID {
		t.Fatalf("clean.FollowFrom = %d, want root ID %d", clean.FollowFrom, root.ID)
	}
	if clean.Parent == 0 {
		t.Fatal("clean span must also carry a Parent link (it is nested in the request)")
	}
	if reloc == nil {
		t.Fatal("the relocation program under the clean must resolve to StageClean (sticky), not StageFlash")
	}
	if root.Queue != 5*sim.Microsecond {
		t.Fatalf("root queue = %v, want 5µs", root.Queue)
	}
}

// TestBackgroundSpansStayAnonymous: spans recorded outside any request
// context carry no IDs and no stage, so pre-context traces (and their
// goldens) are unchanged by the tracing machinery.
func TestBackgroundSpansStayAnonymous(t *testing.T) {
	o := New(16)
	clock := sim.NewClock()
	sp := o.StageSpan(clock, nil, "flash", "erase", StageFlash)
	clock.Advance(sim.Millisecond)
	sp.End(0, nil)

	got := o.Tracer.Spans()[0]
	if got.ID != 0 || got.Parent != 0 || got.FollowFrom != 0 || got.Stage != "" {
		t.Fatalf("background span leaked context fields: %+v", got)
	}
}

// TestRequestsDoNotNest: a second BeginRequest while one is active
// returns nil (untraced), and the nil context is safe on every method.
func TestRequestsDoNotNest(t *testing.T) {
	o := New(16)
	clock := sim.NewClock()
	tc := o.BeginRequest(clock, "server", "get", 0)
	if tc == nil {
		t.Fatal("first BeginRequest returned nil")
	}
	if inner := o.BeginRequest(clock, "server", "get", 0); inner != nil {
		t.Fatal("nested BeginRequest must return nil")
	}
	// The nil context is a no-op everywhere.
	var nilCtx *TraceContext
	if bd := nilCtx.Finish(0, errors.New("x")); bd != (Breakdown{}) {
		t.Fatalf("nil Finish = %+v, want zero", bd)
	}
	if nilCtx.Root() != 0 {
		t.Fatal("nil Root() != 0")
	}
	tc.Finish(0, nil)
	if o.reqCtx != nil {
		t.Fatal("Finish must uninstall the context")
	}
	// After Finish a new request can begin.
	if tc2 := o.BeginRequest(clock, "server", "get", 0); tc2 == nil {
		t.Fatal("BeginRequest after Finish returned nil")
	} else {
		tc2.Finish(0, nil)
	}
}

// TestNilObserverTracingIsFreeAndSafe: the nil-observer fast path the
// benchmarks guard — no allocations, no records, no panics.
func TestNilObserverTracingIsFreeAndSafe(t *testing.T) {
	var o *Observer
	clock := sim.NewClock()
	if tc := o.BeginRequest(clock, "server", "get", 0); tc != nil {
		t.Fatal("nil observer BeginRequest must return nil")
	}
	sp := o.StageSpan(clock, nil, "flash", "read", StageFlash)
	sp.End(0, nil) // must not panic
}

// TestEffectiveStage pins the stage-resolution rule through a request
// tree: each recorded span carries the stage its declaration and its
// parent's stage resolve to.
func TestEffectiveStage(t *testing.T) {
	o := New(64)
	clock := sim.NewClock()
	tc := o.BeginRequest(clock, "server", "get", 0) // root default: other
	flush := o.StageSpan(clock, nil, "wbuf", "flush", StageFlush)
	o.StageSpan(clock, nil, "flash", "program", StageFlash).End(0, nil) // declaration wins over inheritance
	o.Span(clock, nil, "ftl", "write").End(0, nil)                      // undeclared inherits
	flush.End(0, nil)
	o.StageSpan(clock, nil, "flash", "read", StageFlash).End(0, nil) // declaration wins over the root's
	clean := o.StageSpan(clock, nil, "ftl", "clean", StageClean)
	o.StageSpan(clock, nil, "flash", "erase", StageFlash).End(0, nil) // clean is sticky downward
	clean.End(0, nil)
	dev := o.StageSpan(clock, nil, "flash", "copy", StageFlash)
	o.StageSpan(clock, nil, "ftl", "relocate", StageClean).End(0, nil) // and wins when declared
	dev.End(0, nil)
	tc.Finish(0, nil)

	want := map[string]Stage{
		"server/get": StageOther, "wbuf/flush": StageFlush,
		"flash/program": StageFlash, "ftl/write": StageFlush,
		"flash/read": StageFlash, "ftl/clean": StageClean,
		"flash/erase": StageClean, "flash/copy": StageFlash,
		"ftl/relocate": StageClean,
	}
	spans := o.Tracer.Spans()
	if len(spans) != len(want) {
		t.Fatalf("%d spans recorded, want %d", len(spans), len(want))
	}
	for _, sp := range spans {
		if name := sp.Layer + "/" + sp.Op; sp.Stage != want[name].String() {
			t.Errorf("%s resolved to stage %q, want %v", name, sp.Stage, want[name])
		}
	}
}

// TestSpanRefIsTwoWords: an open span is a stack pointer and a depth, so
// returning it through each layer's span wrapper copies two words; the
// zero SpanRef, which every untraced probe returns, closes as a no-op.
func TestSpanRefIsTwoWords(t *testing.T) {
	if size := unsafe.Sizeof(SpanRef{}); size > 16 {
		t.Fatalf("SpanRef is %d bytes, want at most 16", size)
	}
	untraced := &Observer{Registry: NewRegistry()}
	sp := untraced.StageSpan(sim.NewClock(), nil, "flash", "read", StageFlash)
	if sp != (SpanRef{}) {
		t.Fatalf("an observer without a tracer returned %+v, want the zero SpanRef", sp)
	}
	sp.End(4096, nil)
	sp.EndOutcome(0, OutcomeError)
}

// TestParentEndClosesSkippedChild: a child whose End an error path
// skipped is closed by its parent's End, so the spans recorded next hang
// off the right parent and inherit the right stage — in a request and on
// the background stack alike.
func TestParentEndClosesSkippedChild(t *testing.T) {
	o := New(16)
	clock := sim.NewClock()
	tc := o.BeginRequest(clock, "server", "put", 0)
	root := tc.Root()
	flush := o.StageSpan(clock, nil, "wbuf", "flush", StageFlush)
	o.InducedSpan(clock, nil, "ftl", "clean", StageClean) // End skipped
	clock.Advance(sim.Microsecond)
	flush.End(0, errors.New("power cut"))
	next := o.Span(clock, nil, "fs", "write")
	clock.Advance(2 * sim.Microsecond)
	next.End(0, nil)
	bd := tc.Finish(0, nil)

	spans := o.Tracer.Spans()
	if len(spans) != 3 {
		t.Fatalf("recorded %d spans, want flush, write and the root", len(spans))
	}
	if got := spans[1]; got.Op != "write" || got.Parent != root || got.Stage != StageOther.String() {
		t.Fatalf("span after the skipped End = %+v, want parent %d stage %v", got, root, StageOther)
	}
	if want := (Breakdown{StageClean: sim.Microsecond, StageOther: 2 * sim.Microsecond}); bd != want {
		t.Fatalf("breakdown = %+v, want %+v", bd, want)
	}

	bg := o.Span(clock, nil, "storman", "migrate")
	o.Span(clock, nil, "flash", "program") // End skipped
	bg.End(0, errors.New("power cut"))
	if n := len(o.spans.frames); n != 0 {
		t.Fatalf("background stack holds %d frames after its outer span ended", n)
	}
}
