package obs

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// checkSnapshot holds a snapshot to the two properties stored keys must
// not change: the metrics are in the order a sort by the full key string
// — rebuilt here from name and labels, independently of any stored key —
// would put them in, and Find agrees with a linear scan on every series
// present and on every probe that is not.
func checkSnapshot(t *testing.T, stage string, s Snapshot, misses []Metric) {
	t.Helper()
	keys := make([]string, len(s.Metrics))
	for i, m := range s.Metrics {
		keys[i] = metricKey(m.Name, m.Labels)
		if m.Key() != keys[i] {
			t.Fatalf("%s: metric %d reports key %q, its name and labels say %q", stage, i, m.Key(), keys[i])
		}
	}
	ref := append([]string(nil), keys...)
	sort.Strings(ref)
	for i := range keys {
		if keys[i] != ref[i] {
			t.Fatalf("%s: position %d holds %q, reference sort puts %q there\n got %q\nwant %q",
				stage, i, keys[i], ref[i], keys, ref)
		}
	}
	linear := func(name string, labels Labels) (Metric, bool) {
		want := metricKey(name, labels)
		for i, m := range s.Metrics {
			if keys[i] == want {
				return m, true
			}
		}
		return Metric{}, false
	}
	probe := func(name string, labels Labels) {
		t.Helper()
		want, wantOK := linear(name, labels)
		got, gotOK := s.Find(name, labels)
		if gotOK != wantOK || got.Value != want.Value || got.Key() != want.Key() {
			t.Fatalf("%s: Find(%s) = (%s=%v, %v), linear scan = (%s=%v, %v)", stage,
				metricKey(name, labels), got.Key(), got.Value, gotOK, want.Key(), want.Value, wantOK)
		}
	}
	for _, m := range s.Metrics {
		probe(m.Name, m.Labels)
	}
	for _, m := range misses {
		probe(m.Name, m.Labels)
	}
}

// TestSnapshotOrderAndFindProperty drives random registries — names that
// share prefixes ("foo", "foobar", "foo_x": '{' sorts after '_' and
// after every letter, so "foo{a=1}" lands after both longer names) and
// random label sets — through every operation that produces a snapshot.
func TestSnapshotOrderAndFindProperty(t *testing.T) {
	names := []string{"foo", "foobar", "foo_x", "foo_", "fo", "bar", "bar_total", "z"}
	labelKeys := []string{"a", "b", "layer", "node", "op", "z"}
	labelVals := []string{"1", "2", "x", "x,y", "n1", "~"}
	rng := rand.New(rand.NewSource(1993))
	randSeries := func() (string, Labels) {
		name := names[rng.Intn(len(names))]
		var labels Labels
		for _, k := range labelKeys {
			if rng.Intn(3) == 0 {
				if labels == nil {
					labels = Labels{}
				}
				labels[k] = labelVals[rng.Intn(len(labelVals))]
			}
		}
		return name, labels
	}
	for trial := 0; trial < 150; trial++ {
		r := NewRegistry()
		register := func(n int) {
			for i := 0; i < n; i++ {
				name, labels := randSeries()
				// A re-drawn series keeps its kind (the registry panics on a
				// kind conflict); distinct values tell Find's hits apart.
				switch len(metricKey(name, labels)) % 3 {
				case 0:
					r.Counter(name, labels).Add(int64(rng.Intn(1 << 20)))
				case 1:
					r.Gauge(name, labels).Set(int64(rng.Intn(1 << 20)))
				default:
					r.Histogram(name, labels).Observe(float64(rng.Intn(1 << 20)))
				}
			}
		}
		var misses []Metric
		for i := 0; i < 12; i++ {
			name, labels := randSeries()
			misses = append(misses, Metric{Name: name, Labels: labels})
		}
		misses = append(misses, Metric{Name: "absent"}, Metric{Name: ""}, Metric{Name: "~~~"})

		register(1 + rng.Intn(40))
		stage := fmt.Sprintf("trial %d", trial)
		snap := r.Snapshot()
		checkSnapshot(t, stage+": Snapshot", snap, misses)

		// Registrations after a snapshot must reach the next one in order.
		register(1 + rng.Intn(10))
		snap = r.Snapshot()
		checkSnapshot(t, stage+": Snapshot after more registrations", snap, misses)

		labelled := snap.WithLabel("node", "n1")
		checkSnapshot(t, stage+": WithLabel", labelled, misses)
		checkSnapshot(t, stage+": WithLabel then FilterLabel", labelled.FilterLabel("node", "n1"), misses)
		checkSnapshot(t, stage+": FilterLabel", snap.FilterLabel("layer", "x"), misses)
		checkSnapshot(t, stage+": Merge", snap.FilterLabel("a", "1").Merge(labelled, snap.WithLabel("node", "n0")), misses)

		var buf bytes.Buffer
		if err := labelled.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		written := buf.String()
		back, err := ReadSnapshot(&buf)
		if err != nil {
			t.Fatal(err)
		}
		checkSnapshot(t, stage+": ReadSnapshot", back, misses)
		buf.Reset()
		if err := back.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if buf.String() != written {
			t.Fatalf("%s: JSON round trip changed the dump", stage)
		}
	}
}

// TestReadSnapshotRestoresKeyOrder: a dump not in key order (merged by
// hand, say) is put back in order on read, so Find still works on it.
func TestReadSnapshotRestoresKeyOrder(t *testing.T) {
	in := `{"metrics":[
		{"name":"foo","labels":{"a":"1"},"kind":"gauge","value":3},
		{"name":"foobar","kind":"gauge","value":2},
		{"name":"foo","kind":"gauge","value":1}]}`
	s, err := ReadSnapshot(bytes.NewBufferString(in))
	if err != nil {
		t.Fatal(err)
	}
	checkSnapshot(t, "unsorted dump", s, []Metric{{Name: "foo_x"}})
	if m, ok := s.Find("foo", Labels{"a": "1"}); !ok || m.Value != 3 {
		t.Fatalf("Find(foo{a=1}) = %v, %v", m, ok)
	}
}
