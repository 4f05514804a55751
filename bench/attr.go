package main

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"time"
)

// attribution is a CPU profile folded onto the repo's layers: self
// charges every sample to one layer, cum to every layer with a frame
// anywhere on the sample's stack.
type attribution struct {
	self, cum map[string]time.Duration
	total     time.Duration
}

const repoPrefix = "ssmobile/internal/"

// pkgLayer maps a package under ssmobile/internal to its layer. The two
// engines and the adapter packages around them are one layer, so the
// ftl and pdl workloads read side by side.
var pkgLayer = map[string]string{
	"server":     "server",
	"cluster":    "cluster",
	"fs":         "fs",
	"storman":    "storman",
	"ftl":        "engine",
	"engine":     "engine",
	"engine/ftl": "engine",
	"engine/pdl": "engine",
	"flash":      "flash",
	"dram":       "dram",
	"obs":        "obs",
	"sim":        "sim",
	"workload":   "bench",
}

// frameLayer names the layer a function belongs to, or "" for a frame
// outside the repo (runtime, standard library). Package server holds
// three layers: the TCP front end and its codec helpers are the wire,
// the client helper is the load generator's side of it, and the rest is
// request dispatch.
func frameLayer(fn string) string {
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "ssmobile/bench.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(fn, repoPrefix)
	if !ok {
		return ""
	}
	// rest is "pkg.Func", "pkg.(*T).Method" or "sub/pkg.Func"; the
	// package path ends at the first dot after the last slash.
	slash := strings.LastIndex(rest, "/")
	dot := strings.Index(rest[slash+1:], ".")
	if dot < 0 {
		return "other"
	}
	pkg, sym := rest[:slash+1+dot], rest[slash+1+dot+1:]
	if pkg == "server" {
		switch {
		case strings.HasPrefix(sym, "(*TCP)."), strings.HasPrefix(sym, "readLine"),
			strings.HasPrefix(sym, "parseReq"), strings.HasPrefix(sym, "write"):
			return "wire"
		case strings.HasPrefix(sym, "(*Client)."), strings.HasPrefix(sym, "Dial"), strings.HasPrefix(sym, "wrapTimeout"):
			return "wire_client"
		}
	}
	if l, ok := pkgLayer[pkg]; ok {
		return l
	}
	return "other"
}

// runtimeLayer classifies a stack with no repo frame on it: the garbage
// collector's own goroutines, the scheduler and netpoller waiting on the
// kernel for sockets and wake-ups, or anything else.
func runtimeLayer(stack []string) string {
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "runtime.gc"), strings.HasPrefix(fn, "runtime.(*gc"),
			strings.HasPrefix(fn, "runtime.bgsweep"), strings.HasPrefix(fn, "runtime.bgscavenge"),
			strings.HasPrefix(fn, "runtime.scanobject"), strings.HasPrefix(fn, "runtime.markroot"),
			strings.HasPrefix(fn, "runtime.sweepone"), strings.HasPrefix(fn, "runtime.(*sweepLocked)"):
			return "runtime_gc"
		}
	}
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "runtime.netpoll"), strings.HasPrefix(fn, "runtime.epoll"),
			strings.HasPrefix(fn, "runtime.futex"), strings.HasPrefix(fn, "runtime.findRunnable"),
			strings.HasPrefix(fn, "runtime.schedule"), strings.HasPrefix(fn, "runtime.mcall"),
			strings.HasPrefix(fn, "internal/poll."), strings.HasPrefix(fn, "syscall."),
			strings.HasPrefix(fn, "internal/runtime/syscall."), strings.HasPrefix(fn, "net."):
			return "kernel_net"
		}
	}
	return "other"
}

// charge folds one sample: stack lists its frames innermost first.
func (a *attribution) charge(stack []string, v time.Duration) {
	if len(stack) == 0 {
		return
	}
	a.total += v
	self := ""
	seen := map[string]bool{}
	for _, fn := range stack {
		l := frameLayer(fn)
		if l == "" {
			continue
		}
		if self == "" {
			self = l
		}
		if !seen[l] {
			seen[l] = true
			a.cum[l] += v
		}
	}
	if self == "" {
		self = runtimeLayer(stack)
	}
	a.self[self] += v
}

// foldTraces reads `go tool pprof -traces` output: a header, then one
// block per distinct stack between dashed rules — the sample value and
// the innermost frame on the block's first line, one caller per line
// after it.
func foldTraces(r io.Reader) (attribution, error) {
	a := attribution{self: map[string]time.Duration{}, cum: map[string]time.Duration{}}
	var stack []string
	var value time.Duration
	inBlocks := false
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			a.charge(stack, value)
			stack, value = stack[:0], 0
			inBlocks = true
			continue
		}
		if !inBlocks {
			continue
		}
		fields := strings.Fields(line)
		switch {
		case len(fields) == 0:
		case len(stack) == 0:
			if len(fields) < 2 {
				return a, fmt.Errorf("pprof traces: no frame after value in %q", line)
			}
			v, err := time.ParseDuration(fields[0])
			if err != nil {
				return a, fmt.Errorf("pprof traces: sample value in %q: %w", line, err)
			}
			value = v
			stack = append(stack, frameName(fields[1:]))
		default:
			stack = append(stack, frameName(fields))
		}
	}
	a.charge(stack, value)
	return a, sc.Err()
}

// frameName strips pprof's "(inline)" marker from a frame line.
func frameName(fields []string) string {
	if n := len(fields); n > 1 && fields[n-1] == "(inline)" {
		fields = fields[:n-1]
	}
	return strings.Join(fields, " ")
}
