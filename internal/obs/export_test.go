package obs

// Add offsets the gauge value.
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Root reports the context's root span ID.
func (tc *TraceContext) Root() uint64 {
	if tc == nil || len(tc.stack.frames) == 0 {
		return 0
	}
	return tc.stack.frames[0].id
}

// Total reports how many spans were ever recorded.
func (t *Tracer) Total() int64 {
	if t == nil {
		return 0
	}
	return t.total
}
