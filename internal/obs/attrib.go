// Offline latency attribution: reconstructing per-request breakdowns
// from a recorded span stream (a JSONL trace or a flight record), the
// file-side twin of the live TraceContext accrual.
//
// Spans are recorded at CLOSE time, so within one observer's stream a
// request's children always precede its root, and — because the
// simulation beneath a server is single-threaded — one request's spans
// are contiguous (interleaved only with anonymous background spans,
// which carry no IDs and are skipped). Attribute therefore streams:
// it buffers identified spans until their root closes, resolves the
// tree, charges each span's exclusive time to its recorded stage, and
// moves on. Buffering one request at a time also keeps merged traces
// (the parallel engine re-records per-job rings in sequence, restarting
// span IDs per observer) attributable: IDs only need to be unique
// within one request's window, which they are.
package obs

import "ssmobile/internal/sim"

// RequestAttribution is one reconstructed request: its root span and the
// per-stage breakdown of its latency.
type RequestAttribution struct {
	// Root is the request's root span (layer/op/outcome/bytes/queue).
	Root Span
	// Breakdown is the per-stage attribution; Breakdown.Total() equals
	// Queue plus the root span's duration.
	Breakdown Breakdown
	// Spans counts the spans in the request's tree, root included.
	Spans int
	// InducedCleans counts spans carrying a FollowFrom link to the root.
	InducedCleans int
}

// AttributionStats summarises a reconstruction pass.
type AttributionStats struct {
	// Requests is the number of complete request trees reconstructed.
	Requests int
	// Orphans counts identified spans whose root never appeared (the
	// ring dropped it) — they are excluded from attribution.
	Orphans int
	// Background counts anonymous spans (no request context).
	Background int
}

// Attribute reconstructs per-request latency breakdowns from a span
// stream, in stream order. The result is exact for any trace whose
// requests are complete in the ring: each request's breakdown equals
// what the live TraceContext reported when the request was served.
func Attribute(spans []Span) ([]RequestAttribution, AttributionStats) {
	var out []RequestAttribution
	var st AttributionStats
	var pending []Span
	for _, sp := range spans {
		if sp.ID == 0 {
			st.Background++
			continue
		}
		if !isRoot(sp) {
			pending = append(pending, sp)
			continue
		}
		req, used := resolveRequest(sp, pending)
		out = append(out, req)
		st.Requests++
		st.Orphans += len(pending) - used
		pending = pending[:0]
	}
	st.Orphans += len(pending)
	return out, st
}

// isRoot identifies a request root: identified, with no parent and no
// follow-from (induced spans have parents; only roots have neither).
func isRoot(sp Span) bool {
	return sp.ID != 0 && sp.Parent == 0 && sp.FollowFrom == 0
}

// resolveRequest builds one request's attribution from its root and the
// buffered candidate children; used reports how many candidates belong
// to the tree.
func resolveRequest(root Span, pending []Span) (RequestAttribution, int) {
	req := RequestAttribution{Root: root, Spans: 1}
	// Child durations, keyed by parent ID, to compute exclusive time.
	childTime := make(map[uint64]sim.Duration, len(pending))
	inTree := make(map[uint64]bool, len(pending)+1)
	inTree[root.ID] = true
	// Children close before parents, so a span's parent appears LATER in
	// the stream; walk backwards so parents are classified first.
	member := make([]bool, len(pending))
	for i := len(pending) - 1; i >= 0; i-- {
		sp := pending[i]
		if inTree[sp.Parent] {
			member[i] = true
			inTree[sp.ID] = true
		}
	}
	used := 0
	for i, sp := range pending {
		if !member[i] {
			continue
		}
		used++
		req.Spans++
		if sp.FollowFrom == root.ID {
			req.InducedCleans++
		}
		// A stage-less member (a cluster holder span, which overlaps the
		// root rather than nesting in it) is neither charged nor
		// subtracted from its parent.
		if sp.Stage != "" {
			childTime[sp.Parent] += sp.Duration()
		}
	}
	// Exclusive time per span → its recorded stage.
	charge := func(sp Span) {
		stage := StageOther
		for s, name := range BreakdownStages {
			if name == sp.Stage {
				stage = Stage(s)
			}
		}
		req.Breakdown[stage] += max(sp.Duration()-childTime[sp.ID], 0)
	}
	for i, sp := range pending {
		if member[i] && sp.Stage != "" {
			charge(sp)
		}
	}
	charge(root)
	req.Breakdown[StageQueue] += root.Queue
	return req, used
}
