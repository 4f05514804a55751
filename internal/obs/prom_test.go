package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestWritePrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("requests_total", Labels{"op": "put"}).Add(3)
	r.Gauge("free_blocks", nil).Set(17)
	r.GaugeFunc("buffer_occupancy", nil, func() float64 { return 0.5 })
	h := r.Histogram("serve_latency_breakdown", Labels{"stage": "clean"})
	h.Observe(100)
	h.Observe(300)

	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	for _, want := range []string{
		"# TYPE requests_total counter\n",
		"requests_total{op=\"put\"} 3\n",
		"# TYPE free_blocks gauge\n",
		"free_blocks 17\n",
		"buffer_occupancy 0.5\n",
		"# TYPE serve_latency_breakdown summary\n",
		"serve_latency_breakdown{stage=\"clean\",quantile=\"0.5\"}",
		"serve_latency_breakdown{stage=\"clean\",quantile=\"0.95\"}",
		"serve_latency_breakdown{stage=\"clean\",quantile=\"0.99\"}",
		"serve_latency_breakdown_sum{stage=\"clean\"} 400\n",
		"serve_latency_breakdown_count{stage=\"clean\"} 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}

	// The exposition must pass its own validator, including the summary's
	// base-name witnessing via _sum/_count.
	required := []string{"requests_total", "free_blocks", "buffer_occupancy", "serve_latency_breakdown"}
	if err := CheckExposition(buf.Bytes(), required); err != nil {
		t.Fatalf("CheckExposition rejected our own output: %v", err)
	}
}

func TestWritePrometheusEmptyAndNil(t *testing.T) {
	var buf bytes.Buffer
	if err := (Snapshot{}).WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("empty snapshot rendered %q", buf.String())
	}
	if err := CheckExposition(nil, nil); err != nil {
		t.Fatalf("empty exposition with no requirements must pass: %v", err)
	}
}

func TestCheckExpositionRejects(t *testing.T) {
	cases := []struct {
		name     string
		data     string
		required []string
	}{
		{"malformed metric line", "requests_total three\n", nil},
		{"bare comment", "#not a type line\n", nil},
		{"unquoted label", "x{op=put} 1\n", nil},
		{"missing required series", "# TYPE a counter\na 1\n", []string{"requests_total"}},
	}
	for _, c := range cases {
		if err := CheckExposition([]byte(c.data), c.required); err == nil {
			t.Errorf("%s: CheckExposition accepted %q", c.name, c.data)
		}
	}

	// Escaped quotes and special values are legal.
	ok := "x{path=\"a\\\"b\"} 1\nnan_metric NaN\ninf_metric +Inf\n"
	if err := CheckExposition([]byte(ok), []string{"x"}); err != nil {
		t.Errorf("CheckExposition rejected legal exposition: %v", err)
	}
}
