package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"ssmobile/internal/sim"
)

// DumpFiles is every CLI's exit path for -metrics, -trace-out and
// -trace-jsonl: each file must read back through the loader its format
// has, and a nil observer or an empty path writes nothing.
func TestDumpFilesRoundTrip(t *testing.T) {
	o := New(64)
	clock := sim.NewClock()
	o.Counter("requests_total", Labels{"layer": "test"}).Add(3)
	driveRequest(o, clock) // 6 spans
	want := o.Tracer.Spans()

	dir := t.TempDir()
	metrics := filepath.Join(dir, "m.json")
	chrome := filepath.Join(dir, "run.trace")
	jsonl := filepath.Join(dir, "run.jsonl")
	if err := DumpFiles(o, metrics, chrome, jsonl); err != nil {
		t.Fatal(err)
	}
	open := func(path string) *os.File {
		t.Helper()
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return f
	}

	snap, err := ReadSnapshot(open(metrics))
	if err != nil {
		t.Fatal(err)
	}
	if m, ok := snap.Find("requests_total", Labels{"layer": "test"}); !ok || m.Value != 3 {
		t.Fatalf("metrics file: requests_total = %+v (found %v), want 3", m, ok)
	}

	spans, dropped, err := LoadSpans(open(jsonl))
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 || len(spans) != len(want) {
		t.Fatalf("JSONL trace: %d spans, %d dropped; want %d, 0", len(spans), dropped, len(want))
	}
	for i := range want {
		if spans[i] != want[i] {
			t.Fatalf("JSONL span %d = %+v, want %+v", i, spans[i], want[i])
		}
	}

	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(open(chrome)).Decode(&doc); err != nil {
		t.Fatalf("Chrome trace is not JSON: %v", err)
	}
	complete := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			complete++
		}
	}
	if complete != len(want) {
		t.Fatalf("Chrome trace: %d complete events, want %d", complete, len(want))
	}

	empty := t.TempDir()
	if err := DumpFiles(nil, filepath.Join(empty, "m.json"), filepath.Join(empty, "run.trace"), filepath.Join(empty, "run.jsonl")); err != nil {
		t.Fatal(err)
	}
	if err := DumpFiles(o, "", "", ""); err != nil {
		t.Fatal(err)
	}
	if entries, err := os.ReadDir(empty); err != nil || len(entries) != 0 {
		t.Fatalf("nil observer or empty paths wrote %d files (err %v)", len(entries), err)
	}
}
