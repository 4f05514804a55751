// Prometheus text exposition (version 0.0.4) rendered from a Snapshot,
// for the ssmserve admin surface's /metrics endpoint. Counters render
// as counters, gauges as gauges, and histograms as summaries carrying
// the quantiles a Metric records (p50, p95, p99).
package obs

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format — the tree's only renderer: a live scrape collects a Snapshot
// (under whatever lock guards the simulation state its read-through
// gauges evaluate) and formats it here after releasing the lock.
// Histograms render as summaries from the snapshot's recorded quantiles.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	// Group by name in first-appearance order: the snapshot is sorted by
	// key, but key order can interleave names ("foobar" sorts between
	// "foo" and "foo{a=b}"), and the exposition format wants one
	// contiguous TYPE block per name.
	groups := make(map[string][]Metric, len(s.Metrics))
	var names []string
	for _, m := range s.Metrics {
		if _, ok := groups[m.Name]; !ok {
			names = append(names, m.Name)
		}
		groups[m.Name] = append(groups[m.Name], m)
	}
	for _, name := range names {
		group := groups[name]
		kind := group[0].Kind
		fmt.Fprintf(bw, "# TYPE %s %s\n", name, promType(kind))
		for _, m := range group {
			if m.Kind != kind {
				// A name registered under two kinds cannot share a TYPE
				// block; skip rather than emit malformed exposition. One
				// registry never does this (lookup panics on per-key kind
				// conflicts), so this guards only merged snapshots.
				continue
			}
			switch kind {
			case KindCounter, KindGauge:
				fmt.Fprintf(bw, "%s%s %s\n", name, promLabels(m.Labels, "", 0), promValue(m.Value))
			case KindHistogram:
				fmt.Fprintf(bw, "%s%s %s\n", name, promLabels(m.Labels, "quantile", 0.5), promValue(m.P50))
				fmt.Fprintf(bw, "%s%s %s\n", name, promLabels(m.Labels, "quantile", 0.95), promValue(m.P95))
				fmt.Fprintf(bw, "%s%s %s\n", name, promLabels(m.Labels, "quantile", 0.99), promValue(m.P99))
				fmt.Fprintf(bw, "%s_sum%s %s\n", name, promLabels(m.Labels, "", 0), promValue(m.Sum))
				fmt.Fprintf(bw, "%s_count%s %d\n", name, promLabels(m.Labels, "", 0), m.Count)
			}
		}
	}
	return bw.Flush()
}

func promType(k Kind) string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "summary"
	}
	return "untyped"
}

// promLabels renders a sorted label block, optionally with an extra
// quantile label, or the empty string for no labels.
func promLabels(l Labels, extra string, q float64) string {
	if len(l) == 0 && extra == "" {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		labelEscaper.WriteString(&b, l[k])
		b.WriteByte('"')
	}
	if extra != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=\"%s\"", extra, strconv.FormatFloat(q, 'g', -1, 64))
	}
	b.WriteByte('}')
	return b.String()
}

// labelEscaper applies the exposition format's label-value escaping —
// backslash, double quote and newline, nothing else.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func promValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Exposition-format line shapes, per the text format spec: a metric line
// is name, optional label block, and a float value (we never emit
// timestamps); NaN/±Inf are legal values.
var (
	promMetricLine = regexp.MustCompile(
		`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (NaN|[+-]?Inf|[+-]?[0-9].*)$`)
	promCommentLine = regexp.MustCompile(`^# (TYPE|HELP) [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?$`)
)

// CheckExposition validates Prometheus text exposition: every line must
// be a well-formed comment or metric line, and every required series
// name must appear with at least one sample. The smoke path runs this
// against a live /metrics scrape so CI fails on malformed output or a
// missing series, not just on a dead endpoint.
func CheckExposition(data []byte, required []string) error {
	seen := make(map[string]bool)
	for i, line := range strings.Split(string(data), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if !promCommentLine.MatchString(line) {
				return fmt.Errorf("obs: exposition line %d: malformed comment %q", i+1, line)
			}
			continue
		}
		if !promMetricLine.MatchString(line) {
			return fmt.Errorf("obs: exposition line %d: malformed metric line %q", i+1, line)
		}
		name := line
		if j := strings.IndexAny(name, "{ "); j >= 0 {
			name = name[:j]
		}
		value := line[strings.LastIndexByte(line, ' ')+1:]
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			return fmt.Errorf("obs: exposition line %d: bad value %q", i+1, value)
		}
		seen[name] = true
		// A summary's name_sum/name_count also witness the base series.
		seen[strings.TrimSuffix(strings.TrimSuffix(name, "_sum"), "_count")] = true
	}
	for _, name := range required {
		if !seen[name] {
			return fmt.Errorf("obs: exposition missing required series %q", name)
		}
	}
	return nil
}
