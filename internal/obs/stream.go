package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// writeStream writes items as a JSON-lines stream of kind ("spans" or
// "events"): a header line {"<kind>":N,"dropped":M}, where M is how many
// earlier items the ring lost, then one object per item, oldest first.
func writeStream[T any](w io.Writer, kind string, items []T, dropped int64) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{%q:%d,\"dropped\":%d}\n", kind, len(items), dropped)
	enc := json.NewEncoder(bw)
	for i := range items {
		if err := enc.Encode(&items[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// loadStream reads a recorded stream of kind in either format: a JSONL
// stream as writeStream writes it, or a flight-record document, told
// apart by its kind field being an array, from which pick takes the
// items and the drop count. The first non-blank line of a JSONL stream
// is its header only when it carries the kind's count field; a stream
// without one starts with its first item.
func loadStream[T any](r io.Reader, kind string, pick func(*FlightRecord) ([]T, int64)) ([]T, int64, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, 0, err
	}
	var probe map[string]json.RawMessage
	if json.Unmarshal(data, &probe) == nil && bytes.HasPrefix(probe[kind], []byte("[")) {
		var fr FlightRecord
		if err := json.Unmarshal(data, &fr); err != nil {
			return nil, 0, fmt.Errorf("obs: flight record: %w", err)
		}
		items, dropped := pick(&fr)
		return items, dropped, nil
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	var items []T
	var dropped int64
	first := true
	for line := 1; sc.Scan(); line++ {
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 {
			continue
		}
		if first {
			first = false
			var hdr map[string]int64
			if json.Unmarshal(text, &hdr) == nil {
				if _, ok := hdr[kind]; ok {
					dropped = hdr["dropped"]
					continue
				}
			}
		}
		var it T
		if err := json.Unmarshal(text, &it); err != nil {
			return nil, 0, fmt.Errorf("obs: %s line %d: %w", kind, line, err)
		}
		items = append(items, it)
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	return items, dropped, nil
}

// LoadSpans reads a recorded span stream — a JSONL trace or a flight
// record — and returns the spans oldest-first and the recorded drop
// count.
func LoadSpans(r io.Reader) ([]Span, int64, error) {
	return loadStream(r, "spans", func(fr *FlightRecord) ([]Span, int64) { return fr.Spans, fr.Dropped })
}
