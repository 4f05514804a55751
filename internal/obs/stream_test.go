package obs

import (
	"encoding/json"
	"io"
	"strings"
	"testing"
)

// TestLoadStreamHeaderOptional holds both loaders to one rule: a JSONL
// stream's first line is its header only when it carries the stream's
// count field, so a stream written without one loses no record, and a
// flight record loads through the same entry point.
func TestLoadStreamHeaderOptional(t *testing.T) {
	line := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b) + "\n"
	}
	sp0, sp1 := line(mkSpan(0)), line(mkSpan(1))
	ev0, ev1 := line(ev(1, EventCordon, "n0", 0)), line(ev(2, EventMigrate, "n0", 3))
	flight := line(FlightRecord{
		Reason: "drain", Dropped: 4, Spans: []Span{mkSpan(0), mkSpan(1)},
		EventsDropped: 5, Events: []Event{ev(1, EventCordon, "n0", 0), ev(2, EventMigrate, "n0", 3)},
	})
	spans := func(r io.Reader) (int, int64, error) {
		items, dropped, err := LoadSpans(r)
		return len(items), dropped, err
	}
	events := func(r io.Reader) (int, int64, error) {
		items, dropped, err := LoadEvents(r)
		return len(items), dropped, err
	}
	for _, tc := range []struct {
		name    string
		load    func(io.Reader) (int, int64, error)
		in      string
		n       int
		dropped int64
	}{
		{"spans/headered", spans, `{"spans":2,"dropped":7}` + "\n" + sp0 + sp1, 2, 7},
		{"spans/headerless", spans, sp0 + sp1, 2, 0},
		{"spans/blank-then-header", spans, "\n" + `{"spans":1,"dropped":1}` + "\n" + sp0, 1, 1},
		{"spans/flight", spans, flight, 2, 4},
		{"events/headered", events, `{"events":2,"dropped":7}` + "\n" + ev0 + ev1, 2, 7},
		{"events/headerless", events, ev0 + ev1, 2, 0},
		{"events/blank-then-header", events, "\n" + `{"events":1,"dropped":1}` + "\n" + ev0, 1, 1},
		{"events/flight", events, flight, 2, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, dropped, err := tc.load(strings.NewReader(tc.in))
			if err != nil {
				t.Fatal(err)
			}
			if n != tc.n || dropped != tc.dropped {
				t.Errorf("loaded %d records, %d dropped; want %d, %d", n, dropped, tc.n, tc.dropped)
			}
		})
	}
}
