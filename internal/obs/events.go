// The cluster event journal: a bounded, virtual-time-stamped stream of
// structured control-plane events — cordons, migrations, heals, replica
// sheds, tombstone lifecycle, node kills and restarts. Request telemetry
// (spans, histograms) answers "where did the time go"; the journal
// answers "what did the fleet DO and why", in the order it happened, on
// the same virtual clock the spans use — so an operator can line a
// cordon event up against the latency spike it caused.
//
// The journal is deliberately tiny and append-only: events are rare
// (control-plane rate, not request rate), so a small ring with a mutex
// costs nothing on the serve hot path, which never touches it.
package obs

import (
	"fmt"
	"io"
	"sync"

	"ssmobile/internal/sim"
)

// Cluster event types. The constants are the wire strings — they appear
// verbatim in /debug/events JSONL, flight records, and ssmtrace output.
const (
	EventCordon           = "cordon"
	EventUncordon         = "uncordon"
	EventMigrate          = "migrate"
	EventHeal             = "heal"
	EventReplicaShed      = "replica-shed"
	EventTombstoneCreate  = "tombstone-create"
	EventTombstoneResolve = "tombstone-resolve"
	EventKill             = "kill"
	EventRestart          = "restart"
)

// Event is one control-plane occurrence: what happened, to which node,
// why, and how many keys it touched. Time is virtual, on the same clock
// as the span stream.
type Event struct {
	Time sim.Time `json:"time_ns"`
	Type string   `json:"type"`
	// Node names the node the event concerns (the cordoned node, the
	// killed node, the shed-target holder).
	Node string `json:"node,omitempty"`
	// Cause is the short reason string ("wear", "operator", "margin
	// 0.031 < 0.050"); empty when the type says it all.
	Cause string `json:"cause,omitempty"`
	// Keys counts the directory keys the event affected (keys migrated
	// off a cordoned node, keys re-replicated by a heal); 0 when the
	// event is not about keys.
	Keys int `json:"keys,omitempty"`
}

// DefaultEventCapacity bounds the journal when the caller does not
// choose. Control-plane events are rare; 4k covers days of simulated
// churn while keeping the footprint trivial.
const DefaultEventCapacity = 1 << 12

// EventLog is a bounded append-only ring of events, the same ring the
// span Tracer keeps. When full the oldest events are overwritten;
// Dropped reports how many were lost. Safe for concurrent use.
type EventLog struct {
	mu sync.Mutex
	ring[Event]
}

// NewEventLog returns a journal retaining up to capacity events (<=0
// selects DefaultEventCapacity).
func NewEventLog(capacity int) *EventLog {
	if capacity <= 0 {
		capacity = DefaultEventCapacity
	}
	return &EventLog{ring: ring[Event]{capacity: capacity}}
}

// Append records one event. Nil-safe, so subsystems can log
// unconditionally and pay nothing when no journal is attached.
func (l *EventLog) Append(ev Event) {
	if l == nil {
		return
	}
	l.mu.Lock()
	*l.slot() = ev
	l.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (l *EventLog) Events() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.items()
}

// Total reports how many events were ever appended.
func (l *EventLog) Total() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Dropped reports how many events the ring has overwritten.
func (l *EventLog) Dropped() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped()
}

// Merge re-appends src's retained events into l (oldest first) and
// carries src's drop count over, as Tracer.Merge does. src must not be
// appending concurrently.
func (l *EventLog) Merge(src *EventLog) {
	if l == nil || src == nil {
		return
	}
	l.mu.Lock()
	l.merge(&src.ring)
	l.mu.Unlock()
}

// WriteJSONL writes the journal as a JSON-lines stream, header
// {"events":N,"dropped":M} — the format /debug/events serves and
// ssmtrace events replays.
func (l *EventLog) WriteJSONL(w io.Writer) error {
	return writeStream(w, "events", l.Events(), l.Dropped())
}

// LoadEvents reads a recorded event stream — an events JSONL stream or a
// flight record — and returns the events oldest-first and the recorded
// drop count.
func LoadEvents(r io.Reader) ([]Event, int64, error) {
	return loadStream(r, "events", func(fr *FlightRecord) ([]Event, int64) { return fr.Events, fr.EventsDropped })
}

// FprintEvents renders an event stream as an aligned timeline table —
// the view `ssmtrace events` shows when replaying a /debug/events dump
// or a flight record offline.
func FprintEvents(w io.Writer, events []Event, dropped int64) {
	fmt.Fprintf(w, "%-18s %-18s %-6s %6s  %s\n", "TIME", "EVENT", "NODE", "KEYS", "CAUSE")
	for _, ev := range events {
		keys := ""
		if ev.Keys != 0 {
			keys = fmt.Sprintf("%d", ev.Keys)
		}
		fmt.Fprintf(w, "%-18s %-18s %-6s %6s  %s\n",
			ev.Time.String(), ev.Type, ev.Node, keys, ev.Cause)
	}
	if dropped > 0 {
		fmt.Fprintf(w, "(%d earlier events dropped)\n", dropped)
	}
}

// SetEventLog attaches a journal to the observer (nil detaches), the
// same pattern as SetFlightRecorder: subsystems holding only the
// observer log events without extra plumbing, and pay a nil check when
// no journal is attached.
func (o *Observer) SetEventLog(l *EventLog) {
	if o == nil {
		return
	}
	o.events.Store(l)
}

// EventLog reports the attached journal, or nil.
func (o *Observer) EventLog() *EventLog {
	if o == nil {
		return nil
	}
	return o.events.Load()
}
