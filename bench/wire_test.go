package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestHungServerIsKilled stands a process that announces its listeners
// and then ignores SIGTERM in for ssmserve: stop must give up at the
// deadline, kill it, reap it, and report the failure.
func TestHungServerIsKilled(t *testing.T) {
	script := filepath.Join(t.TempDir(), "hung")
	body := "#!/bin/sh\ntrap '' TERM\n" +
		"echo 'ssmserve: ops surface on http://127.0.0.1:1/metrics'\n" +
		"echo 'ssmserve: listening on 127.0.0.1:1'\n" +
		"exec sleep 60\n"
	if err := os.WriteFile(script, []byte(body), 0o755); err != nil {
		t.Fatal(err)
	}
	defer func(d time.Duration) { drainDeadline = d }(drainDeadline)
	drainDeadline = 300 * time.Millisecond

	p, err := startServe(script, specs[0])
	if err != nil {
		t.Fatal(err)
	}
	if p.addr != "127.0.0.1:1" || p.admin != "127.0.0.1:1" {
		t.Errorf("parsed addresses %q and %q", p.addr, p.admin)
	}
	t0 := time.Now()
	err = p.stop()
	if err == nil || !strings.Contains(err.Error(), "killed") {
		t.Fatalf("stop of a hung server: %v, want a kill", err)
	}
	if time.Since(t0) > 5*time.Second {
		t.Errorf("stop took %v", time.Since(t0))
	}
	if p.cmd.ProcessState == nil {
		t.Error("the hung server was not reaped")
	}
}

// TestServerThatDiesEarly: a process that exits before announcing a
// listener is an error from startServe, not a hang.
func TestServerThatDiesEarly(t *testing.T) {
	script := filepath.Join(t.TempDir(), "dies")
	if err := os.WriteFile(script, []byte("#!/bin/sh\nexit 3\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := startServe(script, specs[0]); err == nil {
		t.Fatal("startServe accepted a process that exited at once")
	}
}
