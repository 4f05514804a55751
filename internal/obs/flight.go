// The flight recorder: a bounded window of recent spans plus a metrics
// snapshot, dumped to disk when something interesting happens — the
// admission controller engaging shed, a drain, a power-cut remount — or
// on demand from the admin surface. The point is the black-box property:
// when an operator asks "what was the stack doing when it started
// shedding", the answer is already on disk, attributed span by span.
package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// flightSpans bounds how many trailing spans a dump keeps.
const flightSpans = 4096

// flightFiles bounds how many dump files the recorder retains before
// deleting the oldest.
const flightFiles = 16

// FlightRecord is one dump: the reason it was taken, the tail of the
// span ring, and a point-in-time metrics snapshot. The "spans" field is
// an array, which is how LoadSpans tells a flight record from a JSONL
// trace header.
type FlightRecord struct {
	Reason string `json:"reason"`
	Seq    int    `json:"seq"`
	// WallTime is the host wall-clock time of the dump (RFC3339); the
	// spans inside are virtual-time, as everywhere else.
	WallTime string `json:"wall_time,omitempty"`
	// Dropped is how many spans the ring had overwritten in total; the
	// retained window below is the newest tail.
	Dropped int64    `json:"dropped"`
	Spans   []Span   `json:"spans"`
	Metrics Snapshot `json:"metrics"`
	// Events is the cluster event journal retained at dump time (when one
	// is attached to the observer), so the control-plane history — the
	// cordon that caused the latency spike the spans show — rides along.
	Events        []Event `json:"events,omitempty"`
	EventsDropped int64   `json:"events_dropped,omitempty"`
}

// FlightRecorder dumps flight records into a directory. Dumps are
// serialized among themselves, but a dump reads the observer's span ring,
// which takes no lock: it must run under the lock that serializes the
// observer's writer, or after the writer has stopped (see Tracer).
type FlightRecorder struct {
	o   *Observer
	dir string

	mu    sync.Mutex
	seq   int
	files []string
}

// NewFlightRecorder returns a recorder dumping o's telemetry into dir
// (created if missing), keeping the last flightSpans spans per dump and
// the last flightFiles dumps.
func NewFlightRecorder(o *Observer, dir string) (*FlightRecorder, error) {
	if o == nil {
		return nil, fmt.Errorf("obs: flight recorder needs an observer")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &FlightRecorder{o: o, dir: dir}, nil
}

// Dump writes one flight record and returns its path, pruning old dumps
// past the file bound.
func (fr *FlightRecorder) Dump(reason string) (string, error) {
	if fr == nil {
		return "", nil
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	fr.seq++
	rec := FlightRecord{
		Reason:   reason,
		Seq:      fr.seq,
		WallTime: time.Now().UTC().Format(time.RFC3339),
	}
	if t := fr.o.Tracer; t != nil {
		spans := t.Spans()
		if len(spans) > flightSpans {
			rec.Dropped = t.Dropped() + int64(len(spans)-flightSpans)
			spans = spans[len(spans)-flightSpans:]
		} else {
			rec.Dropped = t.Dropped()
		}
		rec.Spans = spans
	}
	if r := fr.o.Registry; r != nil {
		rec.Metrics = r.Snapshot()
	}
	if l := fr.o.EventLog(); l != nil {
		rec.Events = l.Events()
		rec.EventsDropped = l.Dropped()
	}
	path := filepath.Join(fr.dir, fmt.Sprintf("flight-%04d-%s.json", fr.seq, sanitizeReason(reason)))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	if err := enc.Encode(rec); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	fr.files = append(fr.files, path)
	for len(fr.files) > flightFiles {
		os.Remove(fr.files[0])
		fr.files = fr.files[1:]
	}
	return path, nil
}

// sanitizeReason keeps dump filenames portable.
func sanitizeReason(reason string) string {
	out := make([]byte, 0, len(reason))
	for i := 0; i < len(reason) && len(out) < 32; i++ {
		c := reason[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			out = append(out, c)
		default:
			out = append(out, '-')
		}
	}
	if len(out) == 0 {
		return "dump"
	}
	return string(out)
}

// ReadFlightRecord loads a dump written by Dump.
func ReadFlightRecord(path string) (*FlightRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rec FlightRecord
	if err := json.NewDecoder(f).Decode(&rec); err != nil {
		return nil, fmt.Errorf("obs: flight record %s: %w", path, err)
	}
	return &rec, nil
}

// SetFlightRecorder attaches a recorder to the observer (nil detaches),
// so subsystems holding only the observer — the power-cut remount path,
// the admin surface — can dump incidents without extra plumbing.
func (o *Observer) SetFlightRecorder(fr *FlightRecorder) {
	if o == nil {
		return
	}
	o.flight.Store(fr)
}

// FlightRecorder reports the attached recorder, or nil.
func (o *Observer) FlightRecorder() *FlightRecorder {
	if o == nil {
		return nil
	}
	return o.flight.Load()
}
