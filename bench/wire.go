package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"ssmobile/internal/server"
	"ssmobile/internal/workload"
)

// Deadlines on the served process. A server that has not announced its
// listener, or has not drained after SIGTERM, within these is killed and
// the workload counted as failed. drainDeadline is a variable so a test
// can shorten it.
const startDeadline = 20 * time.Second

var drainDeadline = 30 * time.Second

// ioTimeout bounds one request round trip on the wire, so a hung server
// fails the run instead of hanging the benchmark.
const ioTimeout = 30 * time.Second

// buildServe compiles cmd/ssmserve into the build directory, once per
// process, and returns the binary's path and how long the build took.
// It always asks the go command, which decides whether its cached build
// is current — the benchmark must never time a stale binary.
var buildServe = sync.OnceValues(func() (built, error) {
	dir := buildDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return built{}, err
	}
	bin, err := filepath.Abs(filepath.Join(dir, "ssmserve"))
	if err != nil {
		return built{}, err
	}
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/ssmserve")
	cmd.Dir = rootDir
	if out, err := cmd.CombinedOutput(); err != nil {
		return built{}, fmt.Errorf("go build ./cmd/ssmserve: %v\n%s", err, out)
	}
	return built{bin: bin, took: time.Since(t0)}, nil
})

type built struct {
	bin  string
	took time.Duration
}

// served is one running `ssmserve serve` process.
type served struct {
	cmd   *exec.Cmd
	addr  string // request listener
	admin string // ops surface
	// lines carries the process's remaining stdout after the listener
	// announcement; waitErr its exit status once it has ended.
	lines   chan string
	waitErr chan error
}

// startServe launches the binary with the workload's card flags on
// ephemeral loopback ports and reads the bound addresses from its
// stdout.
func startServe(bin string, s spec) (*served, error) {
	args := append(s.serveFlags(), "-addr", "127.0.0.1:0", "-admin", "127.0.0.1:0", "serve")
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &served{cmd: cmd, lines: make(chan string, 16), waitErr: make(chan error, 1)}
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			p.lines <- sc.Text()
		}
		close(p.lines)
		p.waitErr <- cmd.Wait()
	}()
	deadline := time.After(startDeadline)
	for p.addr == "" {
		select {
		case line, ok := <-p.lines:
			if !ok {
				return nil, fmt.Errorf("ssmserve exited before listening: %v", <-p.waitErr)
			}
			if a, ok := strings.CutPrefix(line, "ssmserve: ops surface on http://"); ok {
				p.admin = strings.TrimSuffix(a, "/metrics")
			}
			if a, ok := strings.CutPrefix(line, "ssmserve: listening on "); ok {
				p.addr = a
			}
		case <-deadline:
			p.kill()
			return nil, errors.New("ssmserve did not announce its listener in time")
		}
	}
	if p.admin == "" {
		p.kill()
		return nil, errors.New("ssmserve did not announce its ops surface")
	}
	return p, nil
}

// kill ends a process that missed a deadline and reaps it.
func (p *served) kill() {
	p.cmd.Process.Kill()
	for range p.lines {
	}
	<-p.waitErr
}

// peakRSSMB reads the process's high-water resident set from
// /proc/<pid>/status.
func (p *served) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stop sends SIGTERM and requires the clean-drain line and exit 0.
func (p *served) stop() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		p.kill()
		return err
	}
	drained := false
	deadline := time.After(drainDeadline)
	for {
		select {
		case line, ok := <-p.lines:
			if !ok {
				if err := <-p.waitErr; err != nil {
					return fmt.Errorf("ssmserve exit: %w", err)
				}
				if !drained {
					return errors.New("ssmserve exited without reporting a clean drain")
				}
				return nil
			}
			if line == "ssmserve: drained, all data stable" {
				drained = true
			}
		case <-deadline:
			p.kill()
			return errors.New("ssmserve did not drain in time; killed")
		}
	}
}

// call issues one request through the repo's TCP client.
func (c *wireClient) call(op workload.Op, payload []byte) (int, []byte, error) {
	switch op.Kind {
	case workload.Read:
		data, err := c.conn.Get(op.Key, op.Offset, int64(op.Size))
		return len(data), data, err
	case workload.Write:
		n, err := c.conn.Put(op.Key, op.Offset, payload)
		return n, nil, err
	case workload.Truncate:
		return 0, nil, c.conn.Truncate(op.Key, int64(op.Size))
	case workload.Delete:
		return 0, nil, c.conn.Delete(op.Key)
	default:
		_, err := c.conn.Sync()
		return 0, nil, err
	}
}

// wireRun is the result of one closed-loop drive over TCP.
type wireRun struct {
	counts
	// start and elapsed bound the timed window; rtt is every request's
	// round trip, the clients' samples concatenated; gaps the time from
	// each reply to the next send (the generator's own cost).
	start   time.Time
	elapsed time.Duration
	rtt     []time.Duration
	gaps    []time.Duration
}

// wireClient is one caller: its own connection, tenant, stream and model.
type wireClient struct {
	id   int
	conn *server.Client
	m    *model
	gen  *workload.Client
	// preloaded is the number of requests the preload issued on this
	// connection; issued the number sent in earlier timed windows.
	preloaded, issued int
	payBuf            []byte
	// counts and the samples below are the current window's.
	counts
	// sent[i] is when request i went out, measured from the start of the
	// window; rtt[i] its round trip, gaps[i] the time since the previous
	// reply.
	sent, rtt, gaps []time.Duration
}

// dialClients opens one connection per client and preloads its objects.
func dialClients(addr string, cfg workload.Config) ([]*wireClient, error) {
	cs := make([]*wireClient, clients)
	for i := range cs {
		cl, err := server.DialOpts(addr, tenantName(i), server.ClientOptions{Timeout: ioTimeout})
		if err != nil {
			closeClients(cs[:i])
			return nil, err
		}
		cs[i] = &wireClient{id: i, conn: cl, m: newModel(), gen: workload.NewClient(cfg, i)}
	}
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.preloaded, errs[i] = preload(c, c.m, cfg, i)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		closeClients(cs)
		return nil, err
	}
	return cs, nil
}

// loop is one caller's closed loop for one timed window: send, wait for
// the reply, check it, send the next — until the window closes. The
// window's counts and samples replace the previous window's; est sizes
// the sample slices so recording a round trip never allocates inside the
// window.
func (c *wireClient) loop(start, until time.Time, est int) {
	c.issued += int(c.offered)
	c.counts = counts{}
	if cap(c.rtt) < est {
		c.sent = make([]time.Duration, 0, est)
		c.rtt = make([]time.Duration, 0, est)
		c.gaps = make([]time.Duration, 0, est)
	}
	c.sent, c.rtt, c.gaps = c.sent[:0], c.rtt[:0], c.gaps[:0]
	last := time.Now()
	for {
		t0 := time.Now()
		if !t0.Before(until) {
			return
		}
		op, ok := c.gen.Next()
		if !ok {
			return
		}
		var payload []byte
		if op.Kind == workload.Write {
			c.payBuf = op.Payload(c.payBuf)
			payload = c.payBuf
			t0 = time.Now()
		}
		n, data, err := c.call(op, payload)
		t1 := time.Now()
		c.sent = append(c.sent, t0.Sub(start))
		c.gaps = append(c.gaps, t0.Sub(last))
		c.rtt = append(c.rtt, t1.Sub(t0))
		out, merr := c.m.apply(op, payload, n, data, err)
		c.note(op, out, merr)
		if errors.Is(err, server.ErrTimeout) || errors.Is(err, io.EOF) {
			return // the connection is gone; every later request would fail the same way
		}
		last = time.Now()
	}
}

// driveWire runs every client's closed loop concurrently for window and
// merges their samples.
func driveWire(cs []*wireClient, window time.Duration, est int) wireRun {
	var wg sync.WaitGroup
	t0 := time.Now()
	until := t0.Add(window)
	for _, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.loop(t0, until, est)
		}()
	}
	wg.Wait()
	run := wireRun{start: t0, elapsed: time.Since(t0)}
	for _, c := range cs {
		run.add(c.counts)
		run.rtt = append(run.rtt, c.rtt...)
		run.gaps = append(run.gaps, c.gaps...)
	}
	return run
}

func closeClients(cs []*wireClient) {
	for _, c := range cs {
		c.conn.Close()
	}
}
