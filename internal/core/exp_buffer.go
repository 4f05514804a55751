package core

import (
	"fmt"

	"ssmobile/internal/obs"
	"ssmobile/internal/sim"
	"ssmobile/internal/trace"
	"ssmobile/internal/wbuf"
)

// replayThroughBuffer drives one Baker trace through a write buffer and
// reports its final stats (after a terminal Sync, so unflushed residue is
// not silently counted as savings). The trace is read-only here, so one
// generated trace is safely shared across concurrent sweep points.
func replayThroughBuffer(o *obs.Observer, tr *trace.Trace, capacityBytes int64, delay sim.Duration, policy wbuf.EvictPolicy) (wbuf.Stats, error) {
	return replayThroughBufferBS(o, tr, capacityBytes, delay, policy, 4096)
}

// replayThroughBufferBS is replayThroughBuffer with an explicit buffering
// granularity, for the block-size ablation.
func replayThroughBufferBS(o *obs.Observer, tr *trace.Trace, capacityBytes int64, delay sim.Duration, policy wbuf.EvictPolicy, bs int64) (wbuf.Stats, error) {
	clock := sim.NewClock()
	b, err := wbuf.New(wbuf.Config{
		CapacityBytes:  capacityBytes,
		BlockBytes:     int(bs),
		WriteBackDelay: delay,
		Policy:         policy,
		Obs:            o,
	}, clock)
	if err != nil {
		return wbuf.Stats{}, err
	}
	for _, op := range tr.Ops {
		clock.AdvanceTo(sim.Time(op.Time))
		b.Tick()
		switch op.Kind {
		case trace.Write:
			off, remaining := op.Offset, op.Size
			for remaining > 0 {
				blk := off / bs
				n := int(bs - off%bs)
				if n > remaining {
					n = remaining
				}
				if err := b.Write(wbuf.Key{Object: uint64(op.File), Block: blk}, n); err != nil {
					return wbuf.Stats{}, err
				}
				off += int64(n)
				remaining -= n
			}
		case trace.Delete:
			b.InvalidateObject(uint64(op.File))
		}
	}
	b.Sync()
	return b.Stats(), nil
}

// E3 builds the three write-buffering tables over one generated trace:
// the 2-hour Sprite-like Baker trace is a pure function of the seed and
// read-only during replay, so E3, E3b and E3c share it.
func E3(env *Env, seed int64) ([]*Table, error) {
	tr, err := trace.GenerateBaker(trace.DefaultBaker(2*sim.Hour, seed))
	if err != nil {
		return nil, err
	}
	return tableSet(env,
		func(je *Env) (*Table, error) { return E3WriteBuffering(je, tr) },
		func(je *Env) (*Table, error) { return E3FlushPolicyAblation(je, tr) },
		func(je *Env) (*Table, error) { return E3BlockSizeAblation(je, tr) },
	)
}

// E3BlockSizeAblation sweeps the buffering granularity at a fixed 1MB
// buffer: the copy-on-write/buffering unit the storage manager uses.
// Small blocks track dirty data precisely but cost more bookkeeping;
// large blocks waste buffer space on clean bytes dragged along with
// dirty ones.
func E3BlockSizeAblation(env *Env, tr *trace.Trace) (*Table, error) {
	t := &Table{
		ID:      "E3c",
		Title:   "buffer granularity ablation (1MB buffer, 30s write-back)",
		Headers: []string{"block size", "reduction", "flushed MB", "evictions"},
	}
	sizes := []int64{512, 1024, 4096, 16384}
	stats := make([]wbuf.Stats, len(sizes))
	err := env.ForEach(len(sizes), func(i int, je *Env) error {
		st, err := replayThroughBufferBS(je.Obs(), tr, 1<<20, 30*sim.Second, wbuf.EvictLRW, sizes[i])
		stats[i] = st
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, bs := range sizes {
		st := stats[i]
		t.AddRow(fmtBytes(bs),
			fmt.Sprintf("%.1f%%", st.Reduction()*100),
			fmt.Sprintf("%.1f", float64(st.FlushedBytes)/(1<<20)),
			fmt.Sprint(st.Evictions))
	}
	t.Notes = append(t.Notes,
		"the trace writes whole small files, so granularity mostly moves eviction churn, not absorption")
	return t, nil
}

// E3WriteBuffering regenerates the paper's quantitative anchor: "as
// little as one megabyte of battery-backed RAM can reduce write traffic
// by 40 to 50%" (Baker et al.). It sweeps the buffer size over a
// Sprite-like synthetic trace with the classic 30-second write-back
// delay.
func E3WriteBuffering(env *Env, tr *trace.Trace) (*Table, error) {
	ts := tr.Stats()
	t := &Table{
		ID:    "E3",
		Title: "write-traffic reduction vs battery-backed write buffer size (30s write-back)",
		Headers: []string{"buffer", "reduction", "overwrite-absorbed", "delete-absorbed",
			"flushed MB", "evictions"},
	}
	sizes := []float64{0, 0.25, 0.5, 1, 2, 4, 8}
	stats := make([]wbuf.Stats, len(sizes))
	err := env.ForEach(len(sizes), func(i int, je *Env) error {
		st, err := replayThroughBuffer(je.Obs(), tr, int64(sizes[i]*float64(1<<20)), 30*sim.Second, wbuf.EvictLRW)
		stats[i] = st
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, mb := range sizes {
		st := stats[i]
		t.AddRow(
			fmt.Sprintf("%.2gMB", mb),
			fmt.Sprintf("%.1f%%", st.Reduction()*100),
			fmt.Sprintf("%.1f%%", float64(st.OverwriteAbsorbedBytes)/float64(st.HostBytes)*100),
			fmt.Sprintf("%.1f%%", float64(st.DeleteAbsorbedBytes)/float64(st.HostBytes)*100),
			fmt.Sprintf("%.1f", float64(st.FlushedBytes)/(1<<20)),
			fmt.Sprint(st.Evictions),
		)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("workload: %d ops, %.0fMB written, %d files over %v (Sprite-calibrated synthetic)",
			ts.Ops, float64(ts.BytesWritten)/(1<<20), ts.UniqueFiles, ts.Duration),
		"paper claim: ~1MB of NVRAM cuts write traffic 40-50%")
	return t, nil
}

// E3FlushPolicyAblation compares eviction policies and write-back delays
// at the 1MB point — the design-choice ablation for the write buffer.
func E3FlushPolicyAblation(env *Env, tr *trace.Trace) (*Table, error) {
	t := &Table{
		ID:      "E3b",
		Title:   "write-buffer policy ablation at 1MB",
		Headers: []string{"eviction", "write-back delay", "reduction"},
	}
	type point struct {
		pol   wbuf.EvictPolicy
		delay sim.Duration
	}
	var points []point
	for _, pol := range []wbuf.EvictPolicy{wbuf.EvictLRW, wbuf.EvictFIFO} {
		for _, delay := range []sim.Duration{5 * sim.Second, 30 * sim.Second, 2 * sim.Minute, 0} {
			points = append(points, point{pol, delay})
		}
	}
	stats := make([]wbuf.Stats, len(points))
	err := env.ForEach(len(points), func(i int, je *Env) error {
		st, err := replayThroughBuffer(je.Obs(), tr, 1<<20, points[i].delay, points[i].pol)
		stats[i] = st
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, p := range points {
		delayStr := p.delay.String()
		if p.delay == 0 {
			delayStr = "none (evict-only)"
		}
		t.AddRow(p.pol.String(), delayStr, fmt.Sprintf("%.1f%%", stats[i].Reduction()*100))
	}
	t.Notes = append(t.Notes, "longer write-back delays absorb more but risk more loss on power failure (see E10)")
	return t, nil
}
