package main

import (
	"os"
	"path/filepath"
	"testing"

	"ssmobile/internal/obs"
	"ssmobile/internal/sim"
	"ssmobile/internal/trace"
)

// The replay subcommand wires its observer into both stacks and into the
// replay itself: -metrics must carry the replay's latencies and every
// layer of both organisations, with nothing reaching them another way.
func TestReplayReportsToItsObserver(t *testing.T) {
	tr, err := trace.GenerateBaker(trace.DefaultBaker(sim.Minute, 7))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baker.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	o := obs.New(0)
	if err := replay(o, []string{"-trace", path, "-system", "both"}); err != nil {
		t.Fatal(err)
	}
	snap := o.Registry.Snapshot()
	if m, ok := snap.Find("op_latency_ns", obs.Labels{"layer": "replay", "op": "write"}); !ok || m.Count == 0 {
		t.Errorf("op_latency_ns{layer=replay,op=write}: found %v, count %d; want a nonzero count", ok, m.Count)
	}
	for _, lbl := range []obs.Labels{
		{"device": "flash", "layer": "flash", "op": "program"}, // the solid-state stack
		{"device": "disk", "layer": "disk", "op": "write"},     // the disk stack
	} {
		if m, ok := snap.Find("ops_total", lbl); !ok || m.Value == 0 {
			t.Errorf("ops_total%v: found %v, value %v; want a nonzero value", lbl, ok, m.Value)
		}
	}
}
