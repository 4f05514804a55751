package core

import (
	"fmt"

	"ssmobile/internal/obs"
	"ssmobile/internal/sim"
	"ssmobile/internal/trace"
	"ssmobile/internal/workload"
)

// ReplayStats summarises one trace replay on a System. The latencies are
// the replay's own histograms, collected when it returned.
type ReplayStats struct {
	Ops           int
	ReadLatency   obs.Metric
	WriteLatency  obs.Metric
	CreateLatency obs.Metric
	RemoveLatency obs.Metric
	Elapsed       sim.Duration // virtual time from first to last op
	EnergyTotal   sim.Energy
	BytesRead     int64
	BytesWritten  int64
}

// fileName renders the stable name a trace file id maps to.
func fileName(id trace.FileID) string { return fmt.Sprintf("f%d", uint64(id)) }

// payload fills buf with a cheap deterministic pattern so flash programs
// see realistic mixed bits.
func payload(buf []byte, file trace.FileID, off int64) {
	workload.Ramp(buf, byte(uint64(file)*131+uint64(off)*31))
}

// Replay runs the trace against the system, advancing the virtual clock
// to each operation's timestamp and pumping the write-back daemons along
// the way. It does not Sync at the end; callers decide whether the
// experiment's accounting should include a final flush.
//
// Each operation's latency lands both in the returned per-replay
// histograms and in the default observer's op_latency_ns aggregates, and
// each op is traced as a span of layer "replay".
func Replay(sys System, tr *trace.Trace) (ReplayStats, error) {
	return ReplayObs(obs.Default(), sys, tr)
}

// replayHist is one operation kind's latency histograms: the replay's
// own, which ReplayStats reports, and the observer's op_latency_ns
// series, which every replay under that observer shares.
type replayHist struct{ own, series *obs.Histogram }

func (h replayHist) observe(d sim.Duration) {
	h.own.ObserveDuration(d)
	h.series.ObserveDuration(d)
}

// ReplayObs is Replay recording telemetry into an explicit observer
// instead of the process default — the form the parallel experiment
// engine uses, so concurrent replays never interleave their spans.
func ReplayObs(o *obs.Observer, sys System, tr *trace.Trace) (st ReplayStats, err error) {
	hist := func(op string) replayHist {
		lbl := obs.Labels{"layer": "replay", "op": op}
		return replayHist{own: obs.NewHistogram("op_latency_ns", lbl), series: o.Histogram("op_latency_ns", lbl)}
	}
	readH := hist("read")
	writeH := hist("write")
	createH := hist("create")
	removeH := hist("remove")
	defer func() {
		st.ReadLatency, st.WriteLatency = readH.own.Collect(), writeH.own.Collect()
		st.CreateLatency, st.RemoveLatency = createH.own.Collect(), removeH.own.Collect()
	}()
	clock := sys.Clock()
	meter := sys.Meter()
	start := clock.Now()
	scratch := make([]byte, 256*1024)
	for _, op := range tr.Ops {
		if at := start.Add(sim.Duration(op.Time)); at > clock.Now() {
			clock.AdvanceTo(at)
		}
		if err := sys.Tick(); err != nil {
			return st, fmt.Errorf("tick at op %d: %w", st.Ops, err)
		}
		opStart := clock.Now()
		name := fileName(op.File)
		switch op.Kind {
		case trace.Create:
			sp := o.Span(clock, meter, "replay", "create")
			if err := sys.Create(name); err != nil {
				sp.End(0, err)
				return st, fmt.Errorf("create %s: %w", name, err)
			}
			sp.End(0, nil)
			createH.observe(clock.Now().Sub(opStart))
		case trace.Write:
			buf := scratch[:op.Size]
			payload(buf, op.File, op.Offset)
			sp := o.Span(clock, meter, "replay", "write")
			if _, err := sys.WriteAt(name, op.Offset, buf); err != nil {
				sp.End(0, err)
				return st, fmt.Errorf("write %s: %w", name, err)
			}
			sp.End(int64(op.Size), nil)
			st.BytesWritten += int64(op.Size)
			writeH.observe(clock.Now().Sub(opStart))
		case trace.Read:
			buf := scratch[:op.Size]
			sp := o.Span(clock, meter, "replay", "read")
			if _, err := sys.ReadAt(name, op.Offset, buf); err != nil {
				sp.End(0, err)
				return st, fmt.Errorf("read %s: %w", name, err)
			}
			sp.End(int64(op.Size), nil)
			st.BytesRead += int64(op.Size)
			readH.observe(clock.Now().Sub(opStart))
		case trace.Delete:
			sp := o.Span(clock, meter, "replay", "remove")
			if err := sys.Remove(name); err != nil {
				sp.End(0, err)
				return st, fmt.Errorf("remove %s: %w", name, err)
			}
			sp.End(0, nil)
			removeH.observe(clock.Now().Sub(opStart))
		}
		st.Ops++
	}
	sys.SettleIdle()
	st.Elapsed = clock.Now().Sub(start)
	st.EnergyTotal = sys.Meter().Total()
	return st, nil
}
