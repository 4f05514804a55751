package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sync"

	"ssmobile/internal/server"
)

// checkScale is how much shorter than the standard run `bench -check`
// runs everything: the timed windows, the request counts and the key
// space, so that the preloads shrink with the rest. The check validates
// names, schema and the verifier; it measures nothing.
const checkScale = 20

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkFile is the part of BENCHMARK.json the code must agree with.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// runCheck validates the benchmark's definitions against BENCHMARK.json,
// proves the verifier rejects a wrong reply, and runs every workload,
// untraced and traced, at 1/checkScale length, checking each result line
// against the schema.
func runCheck(seed int64) error {
	if err := checkDefinitions(); err != nil {
		return err
	}
	if err := checkVerifier(seed); err != nil {
		return err
	}
	// The untraced and the traced runs go side by side: nothing here is
	// a measurement, and only the traced ones use the process-wide CPU
	// profiler.
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i, traced := range []bool{false, true} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = checkWorkloads(seed, traced)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// checkWorkloads runs every workload at 1/checkScale length, traced or
// not, and holds each result line to the schema.
func checkWorkloads(seed int64, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, s := range specs {
		s.load.Keys = max(s.load.Keys/checkScale, 2)
		res, err := runWorkload(s, seed, float64(standardSeconds)/checkScale, traced)
		if err != nil {
			return fmt.Errorf("%s (traced=%v): %w", s.name, traced, err)
		}
		if err := checkResultLine(resultLine(res, defs), defs); err != nil {
			return fmt.Errorf("%s (traced=%v): %w; problems: %v", s.name, traced, err, res.problems)
		}
	}
	return nil
}

// checkDefinitions holds the code's metric and workload tables to the
// naming rules and to BENCHMARK.json, so neither can change alone.
func checkDefinitions() error {
	seen := map[string]bool{}
	use := func(kind, name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("%s name %q: want a letter or digit, then letters, digits, _ . - (64 at most)", kind, name)
		}
		if seen[name] {
			return fmt.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
		return nil
	}
	for _, s := range specs {
		if err := use("workload", s.name); err != nil {
			return err
		}
	}
	for _, d := range append(append(append([]metricDef(nil), endToEnd...), alsoReported...), perLayer...) {
		if err := use("metric", d.name); err != nil {
			return err
		}
		if d.better != "lower" && d.better != "higher" {
			return fmt.Errorf("metric %s: direction %q", d.name, d.better)
		}
	}

	raw, err := os.ReadFile(filepath.Join(rootDir, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if bf.RunSeconds != standardSeconds {
		return fmt.Errorf("BENCHMARK.json run_seconds is %d, the workloads are sized for %d", bf.RunSeconds, standardSeconds)
	}
	if len(bf.Workloads) != len(specs) {
		return fmt.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			return fmt.Errorf("BENCHMARK.json workload %d is %q (%q), the benchmark's is %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
	if err := sameMetrics("end_to_end", bf.EndToEnd, endToEnd); err != nil {
		return err
	}
	return sameMetrics("per_layer", bf.PerLayer, perLayer)
}

func sameMetrics(list string, file []benchmarkMetric, defs []metricDef) error {
	if len(file) != len(defs) {
		return fmt.Errorf("BENCHMARK.json %s lists %d metrics, the benchmark reports %d", list, len(file), len(defs))
	}
	for i, m := range file {
		d := defs[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			return fmt.Errorf("BENCHMARK.json %s[%d] is %+v, the benchmark's is %+v", list, i, m, d)
		}
	}
	return nil
}

// checkResultLine holds one result line to the contract: exactly the
// keys correct, attempted, failed and metrics; every listed metric
// present with exactly a value and a unit; nothing failed.
func checkResultLine(line string, defs []metricDef) error {
	var top map[string]json.RawMessage
	if err := json.Unmarshal([]byte(line), &top); err != nil {
		return fmt.Errorf("result line is not JSON: %w", err)
	}
	if len(top) != 4 {
		return fmt.Errorf("result line has %d keys, want correct, attempted, failed, metrics", len(top))
	}
	var correct bool
	var attempted, failed int64
	var metrics map[string]map[string]json.RawMessage
	for key, into := range map[string]any{"correct": &correct, "attempted": &attempted, "failed": &failed, "metrics": &metrics} {
		raw, ok := top[key]
		if !ok {
			return fmt.Errorf("result line has no %q", key)
		}
		if err := json.Unmarshal(raw, into); err != nil {
			return fmt.Errorf("result line %q: %w", key, err)
		}
	}
	if !correct || failed != 0 || attempted < 1 {
		return fmt.Errorf("correct=%v attempted=%d failed=%d", correct, attempted, failed)
	}
	if len(metrics) != len(defs) {
		return fmt.Errorf("result line has %d metrics, want %d", len(metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := metrics[d.name]
		if !ok || len(m) != 2 {
			return fmt.Errorf("metric %s: missing, or not exactly a value and a unit", d.name)
		}
		var v float64
		var unit string
		if err := errors.Join(json.Unmarshal(m["value"], &v), json.Unmarshal(m["unit"], &unit)); err != nil {
			return fmt.Errorf("metric %s: %w", d.name, err)
		}
		if unit != d.unit || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s: value %v unit %q, want a number in %q", d.name, v, unit, d.unit)
		}
	}
	return nil
}

// corruptService flips one byte of the after-th non-empty get reply of
// every session: a server that answers fast and wrong.
type corruptService struct {
	server.Service
	after int
}

type corruptDoer struct {
	inner       server.RequestDoer
	gets, after int
}

func (c corruptService) OpenSession(tenant string) (server.RequestDoer, error) {
	inner, err := c.Service.OpenSession(tenant)
	if err != nil {
		return nil, err
	}
	return &corruptDoer{inner: inner, after: c.after}, nil
}

func (d *corruptDoer) Do(req server.Request) (server.Response, error) {
	resp, err := d.inner.Do(req)
	if err == nil && req.Kind == server.OpGet && len(resp.Data) > 0 {
		if d.gets++; d.gets == d.after {
			resp.Data[len(resp.Data)/2] ^= 0x01
		}
	}
	return resp, err
}

// checkVerifier drives a short run through a service that corrupts one
// reply per client and requires the shadow model to catch exactly those.
func checkVerifier(seed int64) error {
	s := specs[0]
	cfg := s.workloadConfig(seed, 500, s.rate)
	l, err := load(s, cfg, serveObserver, func(svc server.Service) server.Service {
		return corruptService{Service: svc, after: 10}
	})
	if err != nil {
		return err
	}
	r := l.run()
	if r.failed != clients || r.firstErr == nil {
		return fmt.Errorf("verifier: %d corrupted replies went in, the model flagged %d (%v)", clients, r.failed, r.firstErr)
	}
	return nil
}
