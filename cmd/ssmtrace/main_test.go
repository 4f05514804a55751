package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ssmobile/internal/core"
	"ssmobile/internal/obs"
)

// attributeTrace is a JSONL span trace of two requests. The card's put
// queued 1 µs and spent 2 µs in DRAM and 3 µs programming flash. The
// router's put took 10 ms and records one stage-less child per holder,
// 10 ms and 8 ms long, which overlap its root rather than nest in it.
const attributeTrace = `{"spans":6,"dropped":0}
{"start_ns":1000,"end_ns":3000,"layer":"dram","op":"write","bytes":512,"outcome":"ok","id":2,"parent":1,"stage":"buffer"}
{"start_ns":3000,"end_ns":6000,"layer":"flash","op":"program","bytes":4096,"outcome":"ok","id":3,"parent":1,"stage":"flash"}
{"start_ns":1000,"end_ns":6000,"layer":"server","op":"put","bytes":512,"outcome":"ok","id":1,"queue_ns":1000,"stage":"other"}
{"start_ns":10000000,"end_ns":20000000,"layer":"cluster","op":"primary","outcome":"ok","id":5,"parent":4,"node":"n0"}
{"start_ns":10000000,"end_ns":18000000,"layer":"cluster","op":"replica","outcome":"ok","id":6,"parent":4,"node":"n1"}
{"start_ns":10000000,"end_ns":20000000,"layer":"cluster","op":"put","bytes":512,"outcome":"ok","id":4,"stage":"other"}
`

// TestAttributeTotalsAndJSON runs `ssmtrace attribute -metrics` over
// attributeTrace: the stage totals count each holder span once, inside
// its root, and every request's breakdown is encoded as an object keyed
// by stage.
func TestAttributeTotalsAndJSON(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "run.jsonl")
	if err := os.WriteFile(tracePath, []byte(attributeTrace), 0o644); err != nil {
		t.Fatal(err)
	}
	metricsPath := filepath.Join(dir, "attr.json")
	out := captureStdout(t, func() error {
		return attribute([]string{"-metrics", metricsPath, tracePath}, &profFlags{})
	})
	for _, line := range []string{
		"requests:      2\n",
		"total attributed virtual time: 10.006ms\n",
		"  queue             1µs    0.0%\n",
		"  buffer            2µs    0.0%\n",
		"  flash             3µs    0.0%\n",
		"  other            10ms   99.9%\n",
		"  cluster/put @10ms total=10ms spans=3 cleans=0: other=10ms\n",
		"  server/put @1µs total=6µs spans=3 cleans=0: queue=1µs buffer=2µs flash=3µs\n",
	} {
		if !strings.Contains(out, line) {
			t.Errorf("output lacks %q:\n%s", line, out)
		}
	}

	data, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Requests []struct {
			Breakdown json.RawMessage
			Spans     int
		} `json:"requests"`
	}
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatal(err)
	}
	want := []string{
		`{"Queue":1000,"Buffer":2000,"Flush":0,"Flash":3000,"Clean":0,"Other":0}`,
		`{"Queue":0,"Buffer":0,"Flush":0,"Flash":0,"Clean":0,"Other":10000000}`,
	}
	if len(dump.Requests) != len(want) {
		t.Fatalf("dumped %d requests, want %d", len(dump.Requests), len(want))
	}
	for i, req := range dump.Requests {
		var got bytes.Buffer
		if err := json.Compact(&got, req.Breakdown); err != nil {
			t.Fatal(err)
		}
		if got.String() != want[i] || req.Spans != 3 {
			t.Errorf("request %d: breakdown %s with %d spans, want %s with 3", i, got.String(), req.Spans, want[i])
		}
	}
}

// TestHealthReportAndHeapProfile runs `ssmtrace health -memprofile` over
// the metrics snapshot of a card that has synced a file: the report names
// the device and its wear, and the heap profile is written at exit.
func TestHealthReportAndHeapProfile(t *testing.T) {
	o := obs.New(0)
	sys, err := core.NewSolidState(core.SolidStateConfig{DRAMBytes: 8 << 20, FlashBytes: 32 << 20, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.FS.WriteFile("/f", make([]byte, 64<<10)); err != nil {
		t.Fatal(err)
	}
	if err := sys.Sync(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	snapPath, heapPath := filepath.Join(dir, "metrics.json"), filepath.Join(dir, "heap.pprof")
	if err := obs.DumpFiles(o, snapPath, "", ""); err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() error {
		return runProfiled([]string{"-memprofile", heapPath, snapPath}, &profFlags{}, health)
	})
	for _, want := range []string{`device "flash": `, "  life used        ", "  lifetime at rate "} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
	if st, err := os.Stat(heapPath); err != nil || st.Size() == 0 {
		t.Errorf("heap profile not written: %v", err)
	}
}

// captureStdout runs fn with os.Stdout sent to a file and returns what
// fn wrote there.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	err = fn()
	os.Stdout = saved
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
