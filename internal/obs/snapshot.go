package obs

import (
	"encoding/json"
	"io"
	"sort"
)

// Metric is one collector's point-in-time value, the unit of Snapshot and
// of the machine-readable metrics dump.
type Metric struct {
	Name   string `json:"name"`
	Labels Labels `json:"labels,omitempty"`
	Kind   Kind   `json:"kind"`
	// Value carries counters and gauges.
	Value float64 `json:"value,omitempty"`
	// Count..P99 carry histograms.
	Count int64   `json:"count,omitempty"`
	Sum   float64 `json:"sum,omitempty"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
	P50   float64 `json:"p50,omitempty"`
	P95   float64 `json:"p95,omitempty"`
	P99   float64 `json:"p99,omitempty"`

	// key caches Key(): the registry stamps the key it built at
	// registration, and sortByKey rebuilds it once after a snapshot
	// operation changed the labels (or decoded JSON), so ordering and
	// lookup compare stored strings. A Metric built outside this package
	// has none and Key() derives it on demand.
	key string
}

// Key reports the metric's canonical identity "name{k=v,...}".
func (m Metric) Key() string {
	if m.key != "" {
		return m.key
	}
	return metricKey(m.Name, m.Labels)
}

// Snapshot is a point-in-time capture of a registry, sorted by metric key
// so output is deterministic and Find can search it. Every Snapshot this
// package returns is in that order.
type Snapshot struct {
	Metrics []Metric `json:"metrics"`
}

// sortByKey puts the metrics in key order, first building the key of any
// metric that has none (cleared because its labels changed, or never set
// because it was decoded from JSON) — once per metric, never inside the
// comparator.
func (s Snapshot) sortByKey() {
	ms := s.Metrics
	for i := range ms {
		if ms[i].key == "" {
			ms[i].key = metricKey(ms[i].Name, ms[i].Labels)
		}
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].key < ms[j].key })
}

// Snapshot captures every registered collector.
func (r *Registry) Snapshot() Snapshot {
	// order and keys are append-only and byKeyOrder is replaced rather
	// than edited, so what is read here stays valid after the lock is
	// released; collectors are evaluated outside it (a read-through gauge
	// may take its own locks).
	r.mu.Lock()
	if len(r.byKeyOrder) != len(r.order) {
		idx := make([]int, len(r.order))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return r.keys[idx[a]] < r.keys[idx[b]] })
		r.byKeyOrder = idx
	}
	cs, keys, idx := r.order, r.keys, r.byKeyOrder
	r.mu.Unlock()
	s := Snapshot{Metrics: make([]Metric, len(idx))}
	for i, j := range idx {
		s.Metrics[i] = cs[j].Collect()
		s.Metrics[i].key = keys[j]
	}
	return s
}

// Find returns the metric with the given name and labels, if present, by
// binary search over the snapshot's key order.
func (s Snapshot) Find(name string, labels Labels) (Metric, bool) {
	key := metricKey(name, labels)
	i := sort.Search(len(s.Metrics), func(i int) bool { return s.Metrics[i].Key() >= key })
	if i < len(s.Metrics) && s.Metrics[i].Key() == key {
		return s.Metrics[i], true
	}
	return Metric{}, false
}

// WithLabel returns a copy of the snapshot with key=value stamped onto
// every metric (existing values for the key win), re-sorted by the new
// keys. The fleet rollup uses it to tag each node's snapshot before
// merging them into one fleet-wide view.
func (s Snapshot) WithLabel(key, value string) Snapshot {
	out := Snapshot{Metrics: make([]Metric, 0, len(s.Metrics))}
	for _, m := range s.Metrics {
		labels := m.Labels.clone()
		if labels == nil {
			labels = Labels{}
		}
		if _, ok := labels[key]; !ok {
			labels[key] = value
			m.key = ""
		}
		m.Labels = labels
		out.Metrics = append(out.Metrics, m)
	}
	out.sortByKey()
	return out
}

// FilterLabel returns the sub-snapshot of metrics carrying key=value,
// with that label stripped — the inverse of WithLabel, recovering one
// node's snapshot from a merged fleet snapshot so per-device consumers
// (flash.HealthFromSnapshot) can read it unchanged.
func (s Snapshot) FilterLabel(key, value string) Snapshot {
	out := Snapshot{}
	for _, m := range s.Metrics {
		if m.Labels[key] != value {
			continue
		}
		labels := m.Labels.clone()
		delete(labels, key)
		if len(labels) == 0 {
			labels = nil
		}
		m.Labels = labels
		m.key = ""
		out.Metrics = append(out.Metrics, m)
	}
	out.sortByKey()
	return out
}

// Merge returns one snapshot holding s's metrics and every other's, in
// key order — how the fleet view is assembled from the router's snapshot
// and the node-labelled node snapshots.
func (s Snapshot) Merge(others ...Snapshot) Snapshot {
	n := len(s.Metrics)
	for _, o := range others {
		n += len(o.Metrics)
	}
	out := Snapshot{Metrics: make([]Metric, 0, n)}
	out.Metrics = append(out.Metrics, s.Metrics...)
	for _, o := range others {
		out.Metrics = append(out.Metrics, o.Metrics...)
	}
	out.sortByKey()
	return out
}

// Diff reports this snapshot relative to an earlier base, so experiments
// can report deltas instead of absolute totals. Counters subtract values;
// histograms subtract Count and Sum (Min/Max/P50/P95/P99 keep the newer
// snapshot's values — quantiles of a difference are not recoverable from
// summaries); gauges keep the newer value, since a gauge is a state, not
// an accumulation. Metrics absent from the base diff against zero; metrics
// only in the base are omitted.
func (s Snapshot) Diff(base Snapshot) Snapshot {
	prev := make(map[string]Metric, len(base.Metrics))
	for _, m := range base.Metrics {
		prev[m.Key()] = m
	}
	out := Snapshot{Metrics: make([]Metric, 0, len(s.Metrics))}
	for _, m := range s.Metrics {
		if b, ok := prev[m.Key()]; ok {
			switch m.Kind {
			case KindCounter:
				m.Value -= b.Value
			case KindHistogram:
				m.Count -= b.Count
				m.Sum -= b.Sum
			}
		}
		out.Metrics = append(out.Metrics, m)
	}
	return out
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadSnapshot parses a snapshot written by WriteJSON, rebuilding each
// metric's key once and restoring key order (a no-op for a dump WriteJSON
// produced; a hand-merged file may not be sorted, and Find relies on it).
func ReadSnapshot(r io.Reader) (Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return s, err
	}
	s.sortByKey()
	return s, nil
}
