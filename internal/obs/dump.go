package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// DumpFiles writes the observer's metrics snapshot and retained trace to
// the given paths; empty paths are skipped. This is the common CLI exit
// path behind -metrics / -trace-out / -trace-jsonl: the trace goes out
// once as Chrome trace_event JSON and once as a JSONL span stream.
func DumpFiles(o *Observer, metricsPath, chromePath, jsonlPath string) error {
	if o == nil {
		return nil
	}
	if o.Registry != nil {
		if err := WriteFile(metricsPath, func(w io.Writer) error {
			return o.Registry.Snapshot().WriteJSON(w)
		}); err != nil {
			return err
		}
	}
	if o.Tracer == nil {
		return nil
	}
	if err := WriteFile(chromePath, func(w io.Writer) error {
		return writeChromeTrace(w, o.Tracer.Spans(), o.Tracer.Dropped())
	}); err != nil {
		return err
	}
	return WriteFile(jsonlPath, func(w io.Writer) error {
		return writeStream(w, "spans", o.Tracer.Spans(), o.Tracer.Dropped())
	})
}

// WriteFile creates path and fills it through write; an empty path is
// skipped.
func WriteFile(path string, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("obs: writing %s: %w", path, err)
	}
	return f.Close()
}

// chromeEvent is one trace_event record.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes spans (oldest first; dropped is how many
// earlier spans the ring lost) in the Chrome trace_event format (the
// JSON object form), which chrome://tracing and Perfetto open directly.
// Each distinct layer becomes a named "thread" so the per-layer
// timelines stack visually; virtual timestamps map to trace
// microseconds.
func writeChromeTrace(w io.Writer, spans []Span, dropped int64) error {
	// Assign layers to thread ids in first-seen order, deterministically.
	tids := make(map[string]int)
	events := make([]chromeEvent, 0, len(spans)+8)
	for _, sp := range spans {
		tid, ok := tids[sp.Layer]
		if !ok {
			tid = len(tids) + 1
			tids[sp.Layer] = tid
			events = append(events, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
				Args: map[string]any{"name": sp.Layer},
			})
		}
		args := map[string]any{"outcome": sp.Outcome}
		if sp.Bytes != 0 {
			args["bytes"] = sp.Bytes
		}
		if sp.Energy != 0 {
			args["energy_pj"] = int64(sp.Energy)
		}
		if sp.Node != "" {
			args["node"] = sp.Node
		}
		events = append(events, chromeEvent{
			Name: sp.Op, Cat: sp.Layer, Ph: "X",
			Ts:  float64(sp.Start) / 1e3,
			Dur: float64(sp.End.Sub(sp.Start)) / 1e3,
			Pid: 1, Tid: tid, Args: args,
		})
	}
	doc := struct {
		TraceEvents     []chromeEvent  `json:"traceEvents"`
		DisplayTimeUnit string         `json:"displayTimeUnit"`
		OtherData       map[string]any `json:"otherData,omitempty"`
	}{
		TraceEvents:     events,
		DisplayTimeUnit: "ms",
	}
	if dropped > 0 {
		doc.OtherData = map[string]any{"dropped_spans": dropped}
	}
	return json.NewEncoder(w).Encode(doc)
}
