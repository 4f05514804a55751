package obs

import (
	"os"
	"path/filepath"
	"testing"

	"ssmobile/internal/sim"
)

func TestFlightRecorderRoundTrip(t *testing.T) {
	o := New(64)
	clock := sim.NewClock()
	o.Counter("requests_total", nil).Add(2)
	driveRequest(o, clock)

	dir := t.TempDir()
	fr, err := NewFlightRecorder(o, dir)
	if err != nil {
		t.Fatal(err)
	}
	o.SetFlightRecorder(fr)
	if o.FlightRecorder() != fr {
		t.Fatal("SetFlightRecorder/FlightRecorder round trip failed")
	}

	path, err := fr.Dump("shed-engage")
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, "flight-0001-shed-engage.json"); path != want {
		t.Fatalf("dump path = %q, want %q", path, want)
	}

	rec, err := ReadFlightRecord(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Reason != "shed-engage" || rec.Seq != 1 {
		t.Fatalf("record header = %q/%d, want shed-engage/1", rec.Reason, rec.Seq)
	}
	if len(rec.Spans) != 6 {
		t.Fatalf("record holds %d spans, want 6", len(rec.Spans))
	}
	if len(rec.Metrics.Metrics) == 0 {
		t.Fatal("record carries no metrics snapshot")
	}

	// The dump must load through the same path ssmtrace attribute uses,
	// and attribute identically to the live trace.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans, dropped, err := LoadSpans(f)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 || len(spans) != 6 {
		t.Fatalf("LoadSpans(flight record) = %d spans, %d dropped; want 6, 0", len(spans), dropped)
	}
	reqs, st := Attribute(spans)
	if st.Requests != 1 || reqs[0].InducedCleans != 1 {
		t.Fatalf("attribution from flight record = %+v (%d reqs)", st, len(reqs))
	}
}

func TestFlightRecorderBoundsSpansAndFiles(t *testing.T) {
	o := New(2 * flightSpans)
	clock := sim.NewClock()
	driveRequest(o, clock) // 6 spans
	recorded := 6

	dir := t.TempDir()
	fr, err := NewFlightRecorder(o, dir)
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	dump := func() {
		t.Helper()
		p, err := fr.Dump("drain")
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	for i := 0; i < flightFiles; i++ {
		dump()
	}
	for recorded <= flightSpans {
		driveRequest(o, clock)
		recorded += 6
	}
	dump()

	rec, err := ReadFlightRecord(paths[flightFiles])
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Spans) != flightSpans {
		t.Fatalf("span window = %d, want %d (flightSpans)", len(rec.Spans), flightSpans)
	}
	if want := int64(recorded - flightSpans); rec.Dropped != want {
		t.Fatalf("dropped = %d, want %d", rec.Dropped, want)
	}

	if _, err := os.Stat(paths[0]); !os.IsNotExist(err) {
		t.Fatalf("oldest dump %s should have been pruned (err=%v)", paths[0], err)
	}
	for _, p := range paths[1:] {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("retained dump %s: %v", p, err)
		}
	}
}

func TestFlightRecorderNilSafety(t *testing.T) {
	var fr *FlightRecorder
	if path, err := fr.Dump("x"); err != nil || path != "" {
		t.Fatalf("nil recorder Dump = %q, %v", path, err)
	}
	var o *Observer
	o.SetFlightRecorder(nil) // must not panic
	if o.FlightRecorder() != nil {
		t.Fatal("nil observer reports a recorder")
	}
	if _, err := NewFlightRecorder(nil, t.TempDir()); err == nil {
		t.Fatal("NewFlightRecorder(nil, ...) must fail")
	}
}
