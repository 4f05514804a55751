package obs

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"ssmobile/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite the obs testdata goldens")

// driveRequestTree records every kind of span the tracer knows into a
// ring small enough to wrap: background spans outside any context (one
// nested in another), a request whose nested spans declare or inherit
// their stages, an errored flash read, an induced clean whose nested
// program turns sticky-clean and carries follow-from, a holder span
// naming another node, and a second request that fails. The tracer is
// stamped with a node, so every span but the holder's carries it.
func driveRequestTree(o *Observer, clock *sim.Clock, meter *sim.EnergyMeter) {
	o.Tracer.SetNode("n1")
	step := func(d sim.Duration) {
		clock.Advance(d)
		meter.Charge("test", sim.Energy(d))
	}
	background := func(op string) {
		sp := o.Span(clock, meter, "storman", op)
		step(sim.Microsecond)
		dev := o.StageSpan(clock, meter, "flash", "program", StageFlash)
		step(2 * sim.Microsecond)
		dev.End(4096, nil)
		sp.End(4096, nil)
	}
	background("migrate")
	background("daemon")

	tc := o.BeginRequest(clock, "server", "put", 3*sim.Microsecond)
	step(500 * sim.Nanosecond)
	served := clock.Now()
	fs := o.Span(clock, meter, "fs", "write")
	sm := o.Span(clock, meter, "storman", "write")
	buf := o.StageSpan(clock, meter, "dram", "write", StageBuffer)
	step(sim.Microsecond)
	buf.End(512, nil)
	mig := o.StageSpan(clock, meter, "storman", "migrate", StageFlush)
	step(250 * sim.Nanosecond)
	rd := o.StageSpan(clock, meter, "flash", "read", StageFlash)
	step(2 * sim.Microsecond)
	rd.End(0, errors.New("power cut"))
	mig.End(0, errors.New("power cut"))
	cl := o.InducedSpan(clock, meter, "ftl", "clean", StageClean)
	step(sim.Microsecond)
	reloc := o.StageSpan(clock, meter, "flash", "program", StageFlash)
	step(3 * sim.Microsecond)
	reloc.End(4096, nil)
	cl.End(8192, nil)
	sm.End(512, nil)
	fs.End(512, nil)
	tc.HolderSpan("n2", "replica", served, clock.Now(), 512, OutcomeOK)
	tc.Finish(512, nil)

	tc = o.BeginRequest(clock, "server", "get", 0)
	sp := o.Span(clock, meter, "fs", "read")
	step(sim.Microsecond)
	sp.End(0, errors.New("not found"))
	tc.Finish(0, errors.New("not found"))

	background("tick")
}

// TestRequestTreeGolden pins every Span field through the JSONL writer —
// ids, parents, follow-from, queue, stage and node, which the Chrome
// golden omits — together with the drop count and oldest-first order of
// a wrapped ring. Regenerate with -update.
func TestRequestTreeGolden(t *testing.T) {
	o := New(16)
	driveRequestTree(o, sim.NewClock(), sim.NewEnergyMeter())
	if o.Tracer.Dropped() == 0 {
		t.Fatal("the golden ring must wrap")
	}
	var buf bytes.Buffer
	if err := writeStream(&buf, "spans", o.Tracer.Spans(), o.Tracer.Dropped()); err != nil {
		t.Fatalf("writeStream: %v", err)
	}
	golden := filepath.Join("testdata", "request_tree.golden.jsonl")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file: %v (regenerate with -update)", err)
	}
	if got := buf.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("JSONL trace drifted from %s:\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}
