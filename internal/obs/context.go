// Request-scoped trace contexts: the causal thread that connects one
// served request to every operation it forces through the stack.
//
// The storage layers cannot carry a context argument without rewriting
// every method signature, and they do not need one: the stack beneath
// the server is a single-threaded virtual-time simulation, serialized by
// the server's mutex. The server therefore installs the active request's
// TraceContext on the shared Observer (BeginRequest), every Span opened
// while it is installed joins the request's tree automatically, and
// Finish removes it. Layers keep calling the same probes; the context is
// what changes their meaning.
//
// Each in-context span gets an ID, a Parent link to the enclosing open
// span, and an effective latency stage (see Stage constants). Induced
// work — a cleaner pass the request forced on its way through the FTL —
// additionally carries a FollowFrom link back to the request's root
// span, so trace viewers can attribute the stall to the request without
// pretending it was a plain subroutine call.
//
// The context also accrues a per-stage virtual-time breakdown as spans
// open and close: time between span boundaries is charged to the stage
// of the innermost open span. Because the simulated clock only advances
// inside device operations, this boundary accrual is exact — it equals
// the per-span exclusive-time reconstruction Attribute performs on a
// trace file, a property the tests pin.
package obs

import (
	"strconv"

	"ssmobile/internal/sim"
)

// Stage is a latency-attribution stage. A span's declared stage says
// what kind of time it represents; the effective stage additionally
// honors inheritance (an undeclared span belongs to whatever stage
// encloses it) and cleaner stickiness (everything under an induced clean
// is cleaning stall, including the flash programs relocating live pages).
type Stage int

// The stages, in canonical (reporting) order.
const (
	// StageQueue is admission queueing: arrival to service start. It is
	// never a span's stage — it precedes the root span — but appears in
	// breakdowns via the root span's Queue field.
	StageQueue Stage = iota
	// StageBuffer is DRAM work: write-buffer hits, rbox journaling.
	StageBuffer
	// StageFlush is write-buffer eviction: migrating a dirty block out of
	// DRAM to make room (the paper's "write-buffer stall"). Device time
	// inside a flush keeps its own stage; flush is the residue.
	StageFlush
	// StageFlash is direct flash device time: programs, reads, erases not
	// performed on behalf of the cleaner.
	StageFlash
	// StageClean is cleaner work, and it is sticky: once a request is
	// inside an induced clean, every nested operation is cleaning stall.
	StageClean
	// StageOther is everything else: metadata walks, span-free gaps.
	StageOther
	// NumStages is the number of stages, len(BreakdownStages).
	NumStages

	// noStage is an undeclared stage (a span that inherits its parent's)
	// and the stage of a background span, which is recorded as "".
	noStage Stage = -1
)

// BreakdownStages names the stages in canonical order, as traces and the
// serve_latency_breakdown stage label spell them.
var BreakdownStages = []string{"queue", "buffer", "flush", "flash", "clean", "other"}

// String reports the stage's name; noStage's is "".
func (s Stage) String() string {
	if s == noStage {
		return ""
	}
	return BreakdownStages[s]
}

// Breakdown is a per-request latency attribution: virtual time spent in
// each stage, indexed by Stage. Queue plus the service stages sums to
// the request's reported latency.
type Breakdown [NumStages]sim.Duration

// Total reports the summed attribution (the request's latency).
func (b Breakdown) Total() sim.Duration {
	var t sim.Duration
	for _, d := range b {
		t += d
	}
	return t
}

// Add accumulates another breakdown into b.
func (b *Breakdown) Add(o Breakdown) {
	for s, d := range o {
		b[s] += d
	}
}

// MarshalJSON encodes b as an object keyed by the capitalised stage
// names, {"Queue":…,…,"Other":…}, the shape attribution dumps have.
func (b Breakdown) MarshalJSON() ([]byte, error) {
	out := []byte{'{'}
	for s, d := range b {
		if s > 0 {
			out = append(out, ',')
		}
		name := BreakdownStages[s]
		out = append(out, '"', name[0]-'a'+'A')
		out = append(out, name[1:]...)
		out = append(out, '"', ':')
		out = strconv.AppendInt(out, int64(d), 10)
	}
	return append(out, '}'), nil
}

// TraceContext is the causal identity of one in-flight request. It is
// created by Observer.BeginRequest, consulted by every Span opened while
// installed, and retired by Finish. It is not safe for concurrent use:
// the single simulation thread (the server's request path, under its
// mutex) is the only writer, which the installing caller guarantees.
type TraceContext struct {
	o      *Observer
	queue  sim.Duration
	mark   sim.Time
	stages Breakdown
	// stack holds the request's open spans; frame 0 is the root span,
	// which Finish records.
	stack spanStack
}

// BeginRequest opens a request root span and installs its context on the
// observer, so spans opened by the layers beneath join the request's
// tree until Finish. queue is the admission-queueing delay that preceded
// service (arrival to service start); it is recorded on the root span
// and reported as the breakdown's StageQueue component.
//
// It returns nil — and the run stays untraced, at nil cost — when the
// observer has no tracer, or when a request context is already active
// (requests do not nest). The caller must Finish the returned context on
// every path, and must not touch it afterwards: Finish recycles the
// context into the observer's spare slot, so the enabled trace path
// allocates nothing per request in steady state. Tracing never alters
// simulated time or behaviour, only what is recorded about it.
func (o *Observer) BeginRequest(clock *sim.Clock, layer, op string, queue sim.Duration) *TraceContext {
	if o == nil || o.Tracer == nil || clock == nil {
		return nil
	}
	if o.reqCtx != nil {
		return nil
	}
	tc := o.ctxFree
	if tc == nil {
		tc = &TraceContext{}
	}
	o.ctxFree = nil
	now := clock.Now()
	// A parked context is zero but for its stack's backing array, which
	// keeps its capacity (see FinishOutcome): past the first few requests
	// every push lands in the existing array.
	tc.o, tc.queue, tc.mark = o, queue, now
	tc.stages[StageQueue] = queue
	tc.stack.t, tc.stack.ctx = o.Tracer, tc
	o.spanIDs++
	// The root frame is filled in place, every field: a pushed frame
	// reuses a slot an earlier span left behind.
	f := tc.stack.push()
	f.clock, f.meter, f.start, f.energy, f.layer, f.op = clock, nil, now, 0, layer, op
	f.stage, f.id, f.parent, f.follow = StageOther, o.spanIDs, 0, 0
	o.reqCtx = tc
	return tc
}

// accrue charges the virtual time since the last span boundary to the
// stage of the innermost open span.
func (tc *TraceContext) accrue(now sim.Time) {
	if d := now.Sub(tc.mark); d > 0 {
		tc.stages[tc.stack.frames[len(tc.stack.frames)-1].stage] += d
	}
	tc.mark = now
}

// open fills in the request identity of f, just pushed onto the
// context's stack: a fresh id, the enclosing span as parent, the
// effective stage, and for induced work a follow-from link to the root.
//
// The effective stage is the one rule of stage resolution: cleaning is
// sticky, an explicit declaration wins otherwise, and an undeclared span
// inherits its parent's (the root's is StageOther). Recorded spans carry
// it, so Attribute reads it back rather than resolving it again.
func (tc *TraceContext) open(f *spanFrame, declared Stage, induced bool) {
	frames := tc.stack.frames
	up := &frames[len(frames)-2]
	switch {
	case up.stage == StageClean || declared == StageClean:
		f.stage = StageClean
	case declared == noStage:
		f.stage = up.stage
	default:
		f.stage = declared
	}
	tc.o.spanIDs++
	f.id, f.parent = tc.o.spanIDs, up.id
	if induced {
		f.follow = frames[0].id
	}
}

// HolderSpan records a closed child span of the request root attributing
// one holder's share of a replicated operation: the primary's service
// time and each replica's, as separate children carrying the holder's
// node name. The cluster router calls it after the fan-out completes —
// the holders' latencies are already known, so the span is recorded
// retroactively with explicit bounds rather than opened and closed. It
// does not touch the stage accrual, and it records no stage, so Attribute
// neither charges it nor subtracts it from the root: holder time overlaps
// the root span's wall time (replicas are charged at the slowest holder),
// and the per-stage breakdown already accounts for it once.
func (tc *TraceContext) HolderSpan(node, op string, start, end sim.Time, bytes int64, outcome string) {
	if tc == nil {
		return
	}
	root := &tc.stack.frames[0]
	tc.o.spanIDs++
	tc.stack.t.Record(Span{
		Start: start, End: end,
		Layer: root.layer, Op: op,
		Bytes: bytes, Outcome: outcome,
		ID: tc.o.spanIDs, Parent: root.id,
		Node: node,
	})
}

// Finish closes the request: it records the root span (with the queue
// delay and outcome), uninstalls the context from the observer, and
// returns the per-stage latency breakdown. Safe on a nil context.
func (tc *TraceContext) Finish(bytes int64, err error) Breakdown {
	outcome := OutcomeOK
	if err != nil {
		outcome = OutcomeError
	}
	return tc.FinishOutcome(bytes, outcome)
}

// FinishOutcome is Finish with an explicit outcome string. The context
// must not be used after it returns: it is recycled into the observer's
// spare slot for the next BeginRequest.
func (tc *TraceContext) FinishOutcome(bytes int64, outcome string) Breakdown {
	if tc == nil {
		return Breakdown{}
	}
	root := &tc.stack.frames[0]
	now := root.clock.Now()
	tc.accrue(now)
	o := tc.o
	o.reqCtx = nil
	// The root frame has no meter, parent or follow-from, and its stage is
	// StageOther: recorded from the frame, it is the request's root span.
	tc.stack.t.record(root, now, bytes, 0, outcome, tc.queue)
	bd := tc.stages
	*tc = TraceContext{stack: spanStack{frames: tc.stack.frames[:0]}}
	o.ctxFree = tc
	return bd
}
