package obs

import "ssmobile/internal/sim"

// Span is one traced operation: a closed interval of virtual time
// attributed to a layer and an operation, with the bytes moved, the
// energy drawn (inclusive of nested work, measured as the energy-meter
// delta across the span) and the outcome ("ok" or "error").
//
// Spans recorded under an active request context (see TraceContext) also
// carry causal identity: ID names the span, Parent links it to the
// enclosing span of the same request, and FollowFrom links induced work —
// a cleaner pass the request forced on its way through the FTL — back to
// the request's root span. All three are zero for background spans
// recorded outside any request, which keeps pre-context traces (and their
// goldens) byte-identical.
type Span struct {
	Start   sim.Time   `json:"start_ns"`
	End     sim.Time   `json:"end_ns"`
	Layer   string     `json:"layer"`
	Op      string     `json:"op"`
	Bytes   int64      `json:"bytes,omitempty"`
	Energy  sim.Energy `json:"energy_pj,omitempty"`
	Outcome string     `json:"outcome"`
	// ID is the span's identity within its observer's request stream;
	// 0 outside a request context.
	ID uint64 `json:"id,omitempty"`
	// Parent is the ID of the enclosing span within the same request;
	// 0 for a request root (and for background spans).
	Parent uint64 `json:"parent,omitempty"`
	// FollowFrom is the root span the work was induced by: set on cleaner
	// passes that a request triggered synchronously, so trace viewers can
	// attribute the stall without conflating it with the call tree.
	FollowFrom uint64 `json:"follow_from,omitempty"`
	// Queue is the admission-queueing delay that preceded a request root
	// span (arrival to service start); the span itself covers service
	// only, so total latency is Queue + Duration().
	Queue sim.Duration `json:"queue_ns,omitempty"`
	// Stage is the span's effective latency-attribution stage (see the
	// Stage constants and TraceContext.open), resolved at open time so
	// trace consumers need no stage logic. Empty for background spans.
	Stage string `json:"stage,omitempty"`
	// Node names the cluster node the span executed on (or, for the
	// per-holder child spans a clustered request records, the holder the
	// latency belongs to). Single-node runs leave it empty, which keeps
	// their traces — and the goldens pinned against them — byte-identical.
	Node string `json:"node,omitempty"`
}

// Duration reports the span's virtual-time extent.
func (s Span) Duration() sim.Duration { return s.End.Sub(s.Start) }

// Outcomes.
const (
	OutcomeOK    = "ok"
	OutcomeError = "error"
)

// DefaultTraceCapacity bounds the span ring buffer when the caller does
// not choose: 64k spans is enough to hold the tail of any experiment
// while keeping the worst-case footprint around a few megabytes.
const DefaultTraceCapacity = 1 << 16

// Tracer records spans into a bounded ring (see ring): when it is full
// the oldest spans are overwritten, and Dropped reports how many were
// lost.
//
// A Tracer takes no lock: it has one writer, its observer's, like the
// span stacks that feed it. Every other call — Spans, Dropped, Merge,
// SetNode — runs under the lock that serializes that writer, or after
// the writer has stopped (DESIGN §10 lists the readers).
type Tracer struct {
	ring[Span]
	node string // stamped onto recorded spans that carry no node
}

// NewTracer returns a tracer retaining up to capacity spans (<=0 selects
// DefaultTraceCapacity).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{ring: ring[Span]{capacity: capacity}}
}

// Capacity reports how many spans the tracer retains before dropping.
func (t *Tracer) Capacity() int {
	if t == nil {
		return 0
	}
	return t.capacity
}

// SetNode names the cluster node this tracer records for: every span
// recorded without an explicit Node is stamped with it. Merge copies
// spans as they were recorded, so per-node identity survives into a
// fleet-wide ring. The empty default leaves spans unstamped, which is
// what keeps single-node traces byte-identical.
func (t *Tracer) SetNode(name string) {
	if t == nil {
		return
	}
	t.node = name
}

// Record appends one finished span.
func (t *Tracer) Record(sp Span) {
	if t == nil {
		return
	}
	if sp.Node == "" {
		sp.Node = t.node
	}
	*t.slot() = sp
}

// Spans returns the retained spans, oldest first.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.items()
}

// Dropped reports how many spans the ring has overwritten.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped()
}

// Merge re-records src's retained spans into t (oldest first) and carries
// src's drop count over (see ring.merge). src must not be recording
// concurrently with the merge.
func (t *Tracer) Merge(src *Tracer) {
	if t == nil || src == nil {
		return
	}
	t.merge(&src.ring)
}

// SpanRef is an open span returned by Observer.Span: the stack its frame
// sits on and its depth there, two words that cost nothing to return
// through a layer's span wrapper. The zero value is a no-op, which is how
// uninstrumented runs pay nothing.
type SpanRef struct {
	s     *spanStack
	depth int
}

// spanFrame is an open span's state, written once at open and read by End.
type spanFrame struct {
	clock      *sim.Clock
	meter      *sim.EnergyMeter
	start      sim.Time
	energy     sim.Energy
	layer, op  string
	stage      Stage // effective stage; noStage outside a request
	id, parent uint64
	follow     uint64
}

// spanStack holds one writer's open spans, innermost last. A request's
// TraceContext owns the stack its spans open on; outside a request they
// open on the observer's background stack. Neither stack is locked: one
// writer per observer is assumed, which the server's mutex and the
// parallel engine's per-job observers guarantee (DESIGN §10).
type spanStack struct {
	t      *Tracer
	ctx    *TraceContext // the request owning the stack; nil for background
	frames []spanFrame
}

// push claims the frame above the top, reusing the backing array. The
// first push sizes the stack for eight frames, deeper than a served
// request's tree usually goes, so a stack seldom grows again.
func (s *spanStack) push() *spanFrame {
	n := len(s.frames)
	if n < cap(s.frames) {
		s.frames = s.frames[:n+1]
	} else {
		s.frames = append(make([]spanFrame, 0, max(2*n, 8)), s.frames...)[:n+1]
	}
	return &s.frames[n]
}

// Span opens a span against the caller's virtual clock. The meter may be
// nil; with one, the span's Energy is the meter delta across the span
// (inclusive of nested operations' draw). End (or EndOutcome) closes it.
//
// When a request context is installed on the observer (BeginRequest) the
// span joins the request's tree: it gets an ID, a Parent link to the
// enclosing open span, and an inherited latency stage. Outside a context
// the span records exactly as before — background work stays anonymous.
func (o *Observer) Span(clock *sim.Clock, meter *sim.EnergyMeter, layer, op string) SpanRef {
	return o.openSpan(clock, meter, layer, op, noStage, false)
}

// StageSpan is Span with a declared latency-attribution stage: device
// layers use it to say what kind of time they represent (dram is
// StageBuffer, flash is StageFlash, buffer eviction is StageFlush). The
// declaration only matters under a request context; see TraceContext.open
// for how it combines with the enclosing span's stage.
func (o *Observer) StageSpan(clock *sim.Clock, meter *sim.EnergyMeter, layer, op string, stage Stage) SpanRef {
	return o.openSpan(clock, meter, layer, op, stage, false)
}

// InducedSpan is StageSpan for work a request forced but did not call
// for — the FTL's synchronous cleaner pass. Under a request context the
// span carries a FollowFrom link back to the request's root span in
// addition to its Parent link, so attribution tools can separate "the
// request asked for this" from "the request's timing got charged this".
func (o *Observer) InducedSpan(clock *sim.Clock, meter *sim.EnergyMeter, layer, op string, stage Stage) SpanRef {
	return o.openSpan(clock, meter, layer, op, stage, true)
}

func (o *Observer) openSpan(clock *sim.Clock, meter *sim.EnergyMeter, layer, op string, stage Stage, induced bool) SpanRef {
	if o == nil || o.Tracer == nil || clock == nil {
		return SpanRef{}
	}
	now := clock.Now()
	s := &o.spans
	tc := o.reqCtx
	if tc != nil {
		s = &tc.stack
		tc.accrue(now)
	} else {
		s.t = o.Tracer
	}
	f := s.push()
	f.clock, f.meter, f.start, f.energy, f.layer, f.op = clock, meter, now, 0, layer, op
	if meter != nil {
		f.energy = meter.Total()
	}
	f.stage, f.id, f.parent, f.follow = noStage, 0, 0, 0
	if tc != nil {
		tc.open(f, stage, induced)
	}
	return SpanRef{s: s, depth: len(s.frames) - 1}
}

// End closes the span with bytes moved and an outcome derived from err.
func (s SpanRef) End(bytes int64, err error) {
	outcome := OutcomeOK
	if err != nil {
		outcome = OutcomeError
	}
	s.EndOutcome(bytes, outcome)
}

// EndOutcome closes the span with an explicit outcome string. It writes
// the span straight into its ring slot and pops the span's frame along
// with any frame above it, so a child whose End an error path skipped is
// closed with its parent.
func (s SpanRef) EndOutcome(bytes int64, outcome string) {
	st := s.s
	if st == nil || s.depth >= len(st.frames) {
		return
	}
	f := &st.frames[s.depth]
	end := f.clock.Now()
	var e sim.Energy
	if f.meter != nil {
		e = f.meter.Total() - f.energy
	}
	if st.ctx != nil {
		st.ctx.accrue(end)
	}
	st.t.record(f, end, bytes, e, outcome, 0)
	st.frames = st.frames[:s.depth]
}

// record writes the span of the closed frame f straight into its ring
// slot, field by field: a composite literal is built aside and then
// copied.
func (t *Tracer) record(f *spanFrame, end sim.Time, bytes int64, e sim.Energy, outcome string, queue sim.Duration) {
	sp := t.slot()
	sp.Start, sp.End, sp.Layer, sp.Op = f.start, end, f.layer, f.op
	sp.Bytes, sp.Energy, sp.Outcome = bytes, e, outcome
	sp.ID, sp.Parent, sp.FollowFrom, sp.Queue = f.id, f.parent, f.follow, queue
	sp.Stage, sp.Node = f.stage.String(), t.node
}
