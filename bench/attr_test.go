package main

import (
	"os"
	"strings"
	"testing"
	"time"
)

// TestFoldTraces folds testdata/sample.traces — blocks taken from `go
// tool pprof -traces` on traced churn_pdl and cluster3 runs, one per
// attribution rule — and checks every rule: the innermost repo frame
// takes the sample, package server splits into wire, wire_client and
// server, stacks with no repo frame go to runtime_gc, kernel_net or
// other, and the cumulative view charges every layer on the stack once.
func TestFoldTraces(t *testing.T) {
	f, err := os.Open("testdata/sample.traces")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	att, err := foldTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	wantSelf := map[string]time.Duration{
		"obs":         ms(10), // the health sweep's snapshot: obs self, cluster cumulative
		"wire":        ms(20), // readLine's read and serveCmd's flush, kernel time included
		"wire_client": ms(50), // server.(*Client) under the benchmark's loop
		"runtime_gc":  ms(10),
		"kernel_net":  ms(10), // the scheduler's netpoll, no repo frame
		"engine":      ms(10),
		"flash":       ms(10),
		"fs":          ms(10),
		"bench":       ms(10), // the shadow model's compare
		"server":      ms(20), // dispatch inside package server is not the wire
	}
	for l, want := range wantSelf {
		if att.self[l] != want {
			t.Errorf("self[%s] = %v, want %v", l, att.self[l], want)
		}
	}
	for l, got := range att.self {
		if _, ok := wantSelf[l]; !ok {
			t.Errorf("self[%s] = %v, want nothing charged there", l, got)
		}
	}
	wantCum := map[string]time.Duration{"cluster": ms(10), "engine": ms(20), "storman": ms(20), "fs": ms(30)}
	for l, want := range wantCum {
		if att.cum[l] != want {
			t.Errorf("cum[%s] = %v, want %v", l, att.cum[l], want)
		}
	}
	if att.total != ms(160) {
		t.Errorf("total = %v, want 160ms", att.total)
	}
}

func TestFrameLayer(t *testing.T) {
	for fn, want := range map[string]string{
		"ssmobile/internal/server.(*TCP).serveCmd":          "wire",
		"ssmobile/internal/server.parseReq":                 "wire",
		"ssmobile/internal/server.parseReq.func1":           "wire",
		"ssmobile/internal/server.writeStatus":              "wire",
		"ssmobile/internal/server.(*Client).Get":            "wire_client",
		"ssmobile/internal/server.DialOpts":                 "wire_client",
		"ssmobile/internal/server.(*Session).Do":            "server",
		"ssmobile/internal/server.(*Server).doGet":          "server",
		"ssmobile/internal/engine/pdl.(*Engine).pickVictim": "engine",
		"ssmobile/internal/engine/ftl.Wrap":                 "engine",
		"ssmobile/internal/ftl.(*FTL).WritePageTagged":      "engine",
		"ssmobile/internal/obs.(*Registry).Snapshot.func1":  "obs",
		"ssmobile/internal/core.NewSolidState":              "other",
		"ssmobile/internal/workload.(*Client).Next":         "bench",
		"main.(*model).apply":                               "bench",
		"ssmobile/bench.(*model).apply":                     "bench",
		"runtime.mallocgc":                                  "",
		"bufio.(*Writer).Flush":                             "",
		"internal/poll.(*FD).Read":                          "",
	} {
		if got := frameLayer(fn); got != want {
			t.Errorf("frameLayer(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestFoldTracesRejectsGarbage(t *testing.T) {
	bad := "Type: cpu\n-----------+---\n      lots   runtime.futex\n"
	if _, err := foldTraces(strings.NewReader(bad)); err == nil {
		t.Error("a sample value that is not a duration parsed")
	}
}
