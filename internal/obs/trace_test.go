package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ssmobile/internal/sim"
)

// mkSpan builds a deterministic span for ring and sink tests.
func mkSpan(i int) Span {
	return Span{
		Start:   sim.Time(i * 1000),
		End:     sim.Time(i*1000 + 500),
		Layer:   "flash",
		Op:      fmt.Sprintf("op%d", i),
		Bytes:   int64(i),
		Outcome: OutcomeOK,
	}
}

func TestTracerRingWraparound(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Record(mkSpan(i))
	}
	if tr.Total() != 10 {
		t.Fatalf("Total = %d, want 10", tr.Total())
	}
	if tr.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", tr.Dropped())
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("retained %d spans, want 4", len(spans))
	}
	// The last four recorded, oldest first.
	for i, sp := range spans {
		if want := fmt.Sprintf("op%d", 6+i); sp.Op != want {
			t.Fatalf("span %d is %q, want %q", i, sp.Op, want)
		}
	}
}

func TestTracerNoWraparound(t *testing.T) {
	tr := NewTracer(8)
	for i := 0; i < 3; i++ {
		tr.Record(mkSpan(i))
	}
	if tr.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0", tr.Dropped())
	}
	spans := tr.Spans()
	if len(spans) != 3 || spans[0].Op != "op0" || spans[2].Op != "op2" {
		t.Fatalf("retained spans wrong: %+v", spans)
	}
}

func TestSpanRecordsTimeEnergyOutcome(t *testing.T) {
	o := New(8)
	clock := sim.NewClock()
	meter := sim.NewEnergyMeter()
	clock.Advance(10 * sim.Microsecond)

	sp := o.Span(clock, meter, "ftl", "write_page")
	clock.Advance(250 * sim.Microsecond)
	meter.Charge("flash.program", 42)
	sp.End(4096, nil)

	spf := o.Span(clock, meter, "ftl", "read_page")
	spf.End(0, fmt.Errorf("boom"))

	spans := o.Tracer.Spans()
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	got := spans[0]
	if got.Layer != "ftl" || got.Op != "write_page" || got.Bytes != 4096 {
		t.Fatalf("span identity wrong: %+v", got)
	}
	if got.Start != sim.Time(10*sim.Microsecond) || got.Duration() != 250*sim.Microsecond {
		t.Fatalf("span timing wrong: start %v duration %v", got.Start, got.Duration())
	}
	if got.Energy != 42 {
		t.Fatalf("span energy = %v, want the meter delta 42", got.Energy)
	}
	if got.Outcome != OutcomeOK {
		t.Fatalf("outcome = %q, want %q", got.Outcome, OutcomeOK)
	}
	if spans[1].Outcome != OutcomeError {
		t.Fatalf("failed span outcome = %q, want %q", spans[1].Outcome, OutcomeError)
	}
}

// goldenSpans is the fixed input behind the Chrome trace golden file: two
// layers, an error outcome, and a zero-byte span to cover field omission.
func goldenSpans() []Span {
	return []Span{
		{Start: 1000, End: 3500, Layer: "flash", Op: "program", Bytes: 256, Energy: 900, Outcome: OutcomeOK},
		{Start: 4000, End: 4100, Layer: "ftl", Op: "read_page", Bytes: 4096, Outcome: OutcomeOK},
		{Start: 5000, End: 9000, Layer: "flash", Op: "erase", Outcome: OutcomeError},
	}
}

func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, goldenSpans(), 2); err != nil {
		t.Fatalf("writeChromeTrace: %v", err)
	}
	golden := filepath.Join("testdata", "chrome_trace.golden.json")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file: %v (regenerate by writing buf to %s)", err, golden)
	}
	if got := buf.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("Chrome trace output drifted from %s:\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
	// And it must stay structurally valid trace_event JSON.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		OtherData   map[string]any   `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	// 3 complete events + 2 thread_name metadata events.
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("traceEvents = %d, want 5", len(doc.TraceEvents))
	}
	if doc.OtherData["dropped_spans"] != float64(2) {
		t.Fatalf("dropped_spans = %v, want 2", doc.OtherData["dropped_spans"])
	}
}

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	if err := writeStream(&buf, "spans", goldenSpans(), 1); err != nil {
		t.Fatalf("writeStream: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want header + 3 spans", len(lines))
	}
	var hdr struct {
		Spans   int   `json:"spans"`
		Dropped int64 `json:"dropped"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil {
		t.Fatalf("header line: %v", err)
	}
	if hdr.Spans != 3 || hdr.Dropped != 1 {
		t.Fatalf("header = %+v, want spans 3 dropped 1", hdr)
	}
	for i, line := range lines[1:] {
		var sp Span
		if err := json.Unmarshal([]byte(line), &sp); err != nil {
			t.Fatalf("span line %d: %v", i, err)
		}
		if sp != goldenSpans()[i] {
			t.Fatalf("span %d round-tripped to %+v, want %+v", i, sp, goldenSpans()[i])
		}
	}
}
