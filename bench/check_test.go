package main

import "testing"

// TestCheck runs `bench -check`: definitions against BENCHMARK.json, the
// verifier, and every workload, untraced and traced, at 1/20 length —
// the served binary built, started, driven over TCP and drained
// included. The timed benchmark itself never runs under go test.
func TestCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and serves the real binary")
	}
	defer func(d string) { rootDir = d }(rootDir)
	rootDir = ".."
	if err := runCheck(1993); err != nil {
		t.Fatal(err)
	}
}
