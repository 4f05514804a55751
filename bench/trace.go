package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"ssmobile/internal/obs"
	"ssmobile/internal/server"
)

// The traced run repeats a workload's two drives with everything the
// benchmark can observe from outside the program switched on: a span per
// request at the client and a child span around RequestDoer.Do — the two
// interface seams the code exposes — plus a CPU profile folded onto the
// layers for the self time below those seams. End-to-end metrics are
// never taken from it.

// tracedWireShare is the part of -seconds the traced wire window takes.
// It is shorter than the untraced window: the traced run also profiles a
// sim drive, prices the tracer twice over, and folds two profiles.
const tracedWireShare = 0.35

// connProbes is the number of throwaway connections opened to time
// connection set-up (dial plus the hello round trip).
const connProbes = 9

// span is one recorded interval, in nanoseconds since the trace epoch.
type span struct{ start, end int64 }

// spanService wraps a Service so every session it opens records a span
// around each Do. Sessions are kept by tenant; each of the benchmark's
// tenants opens exactly one.
type spanService struct {
	server.Service
	epoch time.Time
	mu    sync.Mutex
	doers map[string]*spanDoer
}

type spanDoer struct {
	inner server.RequestDoer
	epoch time.Time
	spans []span
}

func (s *spanService) OpenSession(tenant string) (server.RequestDoer, error) {
	inner, err := s.Service.OpenSession(tenant)
	if err != nil {
		return nil, err
	}
	d := &spanDoer{inner: inner, epoch: s.epoch}
	s.mu.Lock()
	s.doers[tenant] = d
	s.mu.Unlock()
	return d, nil
}

func (d *spanDoer) Do(req server.Request) (server.Response, error) {
	t0 := time.Since(d.epoch)
	resp, err := d.inner.Do(req)
	d.spans = append(d.spans, span{int64(t0), int64(time.Since(d.epoch))})
	return resp, err
}

// minProfiled is the shortest profiled drive whose profile must hold
// samples; `bench -check` profiles drives of a few milliseconds, which
// the 100 Hz sampler can miss entirely.
const minProfiled = time.Second

// profileLayers runs fn under a CPU profile written to path and folds
// the profile onto layers through the text form of its stacks.
func profileLayers(path string, fn func()) (attribution, error) {
	f, err := os.Create(path)
	if err != nil {
		return attribution{}, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return attribution{}, err
	}
	t0 := time.Now()
	fn()
	ran := time.Since(t0)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return attribution{}, err
	}

	var stderr bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return attribution{}, fmt.Errorf("go tool pprof -traces %s: %v\n%s", path, err, stderr.Bytes())
	}
	att, err := foldTraces(bytes.NewReader(out))
	if err == nil && att.total == 0 && ran >= minProfiled {
		err = fmt.Errorf("%s: %v of profiling recorded no samples", path, ran)
	}
	return att, err
}

// loopbackBytes reads the loopback interface's received-byte counter:
// every byte either side of a loopback connection sends, TCP/IP headers
// and acknowledgements included, is received there once.
func loopbackBytes() (float64, error) {
	b, err := os.ReadFile("/proc/net/dev")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "lo:"); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				break
			}
			return strconv.ParseFloat(fields[0], 64)
		}
	}
	return 0, errors.New("no loopback interface in /proc/net/dev")
}

// runTraced produces one workload's per-layer metrics.
func runTraced(s spec, seed int64, seconds float64) (*result, error) {
	res := newResult(s)
	if err := os.MkdirAll(outDir(), 0o755); err != nil {
		return nil, err
	}
	serve, err := buildServe()
	if err != nil {
		return nil, err
	}
	res.values["bench.build_s"] = serve.took.Seconds()

	spans, err := os.Create(filepath.Join(outDir(), s.name+".spans.jsonl"))
	if err != nil {
		return nil, err
	}
	defer spans.Close()
	sw := bufio.NewWriterSize(spans, 1<<20)

	wire, err := tracedWire(s, seed, time.Duration(tracedWireShare*seconds*float64(time.Second)), res, sw)
	if err != nil {
		return nil, err
	}
	ref, err := tracedSim(s, seed, seconds, res, sw)
	if err != nil {
		return nil, err
	}
	if err := sw.Flush(); err != nil {
		return nil, err
	}
	layerCounts(res, ref)

	// The tracer's price: the same drive with a large span ring against
	// an observer with a registry and no tracer at all — two passes of
	// each, probe-scaled, keeping chunk by chunk the faster (hostNs).
	ops := scaled(s.rungOps, seconds) / 2
	var host [2]int64
	var digest [2]uint64
	for i, mkObs := range []newObserver{
		func() *obs.Observer { return obs.New(1 << 16) },
		func() *obs.Observer { return &obs.Observer{Registry: obs.NewRegistry()} },
	} {
		var passes [2]*rung
		for j := range passes {
			if passes[j], err = runRung(s, seed, s.rate, ops, mkObs); err != nil {
				return nil, err
			}
			if passes[j].firstErr != nil {
				res.fail("tracer-overhead drive: %v", passes[j].firstErr)
			}
		}
		host[i] = hostNs(passes[:]...)
		digest[i] = passes[0].digest
	}
	if digest[0] != digest[1] {
		res.fail("tracing changed a simulated result: digest %016x traced, %016x untraced", digest[0], digest[1])
	}
	res.values["obs.trace_overhead_pct"] = 100 * (float64(host[0])/float64(host[1]) - 1)

	res.attempted = wire.offered + ref.offered
	res.failed = wire.shed + wire.failed + ref.shed + ref.failed
	for _, d := range perLayer {
		v, ok := res.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			res.fail("per-layer metric %s is missing or not a number", d.name)
			res.values[d.name] = 0
		}
	}
	return res, nil
}

// tracedWire repeats the wire drive in process: server.NewTCP over a
// span-recording shim of the workload's stack, the same clients over
// loopback, all under a CPU profile.
func tracedWire(s spec, seed int64, window time.Duration, res *result, sw *bufio.Writer) (wireRun, error) {
	var run wireRun
	st, err := buildStack(s, serveObserver)
	if err != nil {
		return run, err
	}
	epoch := time.Now()
	shim := &spanService{Service: st.svc, epoch: epoch, doers: map[string]*spanDoer{}}
	tcp := server.NewTCP(shim)
	if err := tcp.Listen("127.0.0.1:0"); err != nil {
		return run, err
	}
	// Shutdown is idempotent: this covers the early returns, the explicit
	// call below collects the drain's verdict.
	defer tcp.Shutdown()
	addr := tcp.Addr().String()

	dials := make([]time.Duration, connProbes)
	for i := range dials {
		t0 := time.Now()
		cl, err := server.DialOpts(addr, "probe", server.ClientOptions{Timeout: ioTimeout})
		if err != nil {
			return run, err
		}
		dials[i] = time.Since(t0)
		cl.Close()
	}
	res.values["wire.conn_setup_us"] = us(median(dials))

	cfg := s.workloadConfig(seed, math.MaxInt32, s.rate)
	cs, err := dialClients(addr, cfg)
	if err != nil {
		return run, err
	}
	bytes0, err := loopbackBytes()
	if err != nil {
		closeClients(cs)
		return run, err
	}
	att, err := profileLayers(filepath.Join(outDir(), s.name+".wire.pprof"), func() {
		run = driveWire(cs, window, int(window.Seconds()*100000)+1024)
	})
	bytes1, berr := loopbackBytes()
	closeClients(cs)
	if serr := tcp.Shutdown(); serr != nil {
		res.fail("traced wire drain: %v", serr)
	}
	if err = errors.Join(err, berr); err != nil {
		return run, err
	}
	if run.firstErr != nil {
		res.fail("traced wire drive: %v", run.firstErr)
	}
	if run.offered == 0 {
		return run, errors.New("traced wire drive completed no request")
	}
	ops := float64(run.offered)
	res.values["wire.bytes_per_op"] = (bytes1 - bytes0) / ops

	// Match each request span to its do span by (tenant, sequence within
	// the session): the preload's calls come first on both sides.
	var self []time.Duration
	windowStart := run.start.Sub(epoch)
	for _, c := range cs {
		var dos []span
		if d := shim.doers[tenantName(c.id)]; d != nil {
			dos = d.spans
		}
		first := c.preloaded + c.issued
		if len(dos) < first+len(c.rtt) {
			res.fail("client %d: %d do spans recorded for %d requests", c.id, len(dos), first+len(c.rtt))
			continue
		}
		for i, rtt := range c.rtt {
			do := dos[first+i]
			self = append(self, rtt-time.Duration(do.end-do.start))
			if i < spanFileCap {
				sent := int64(windowStart + c.sent[i])
				writeSpans(sw, "wire", tenantName(c.id), first+i, span{sent, sent + int64(rtt)}, do)
			}
		}
	}
	slices.Sort(self)
	slices.Sort(run.rtt)
	slices.Sort(run.gaps)
	res.values["wire.self_us_p50"] = us(quantile(self, 0.50))
	res.values["wire.self_us_p99"] = us(quantile(self, 0.99))
	res.values["wire.rtt_p999_us"] = us(quantile(run.rtt, 0.999))
	res.values["bench.client_gap_us_p50"] = us(quantile(run.gaps, 0.50))
	for _, m := range []string{"wire.self_us_p50", "wire.self_us_p99", "wire.rtt_p999_us", "bench.client_gap_us_p50"} {
		res.samples[m] = len(run.rtt)
	}

	for _, l := range cpuLayers {
		res.values[l+".cpu_us_per_op"] = us(att.self[l]) / ops
	}
	for _, l := range cumLayers {
		res.values[l+".cpu_cum_us_per_op"] = us(att.cum[l]) / ops
	}
	return run, nil
}

// tracedSim repeats the sim drive at the reference rate with a span
// around every Do, the drive alone (not the set-up) under a CPU profile.
func tracedSim(s spec, seed int64, seconds float64, res *result, sw *bufio.Writer) (*rung, error) {
	cfg := s.workloadConfig(seed, scaled(s.rungOps, seconds), s.rate)
	var shim *spanService
	l, err := load(s, cfg, serveObserver, func(svc server.Service) server.Service {
		shim = &spanService{Service: svc, epoch: time.Now(), doers: map[string]*spanDoer{}}
		return shim
	})
	if err != nil {
		return nil, err
	}
	var ref *rung
	att, err := profileLayers(filepath.Join(outDir(), s.name+".sim.pprof"), func() { ref = l.run() })
	if err != nil {
		return nil, err
	}
	if ref.firstErr != nil {
		res.fail("traced sim drive: %v", ref.firstErr)
	}
	for id := 0; id < clients; id++ {
		d := shim.doers[tenantName(id)]
		pre := len(d.spans) - cfg.OpsPerClient
		for i, sp := range d.spans[pre:min(len(d.spans), pre+spanFileCap)] {
			writeSpans(sw, "sim", tenantName(id), pre+i, sp, sp)
		}
	}
	for _, l := range simCPULayers {
		res.values[l+".sim_cpu_us_per_op"] = us(att.self[l]) / float64(ref.offered)
	}
	return ref, nil
}

// spanFileCap bounds the spans written per client and drive. Every
// span is recorded and used for the metrics; the file keeps the first
// spanFileCap of each stream, which bounds it at some tens of megabytes
// on the workloads that serve hundreds of thousands of requests.
const spanFileCap = 50000

// writeSpans writes one request span with its child do span as a JSON
// line: [start, end] in nanoseconds since the drive's epoch. In the sim
// drive the request is the Do call, so the two cover the same interval.
func writeSpans(w *bufio.Writer, drive, tenant string, seq int, request, do span) {
	fmt.Fprintf(w, `{"drive":%q,"tenant":%q,"seq":%d,"request":[%d,%d],"do":[%d,%d]}`+"\n",
		drive, tenant, seq, request.start, request.end, do.start, do.end)
}

// layerCounts derives the per-layer count metrics from the reference
// rung's tallies. Every one is a pure function of the seed.
func layerCounts(res *result, ref *rung) {
	t, g, v := ref.layer, ref.gauges, res.values
	ops := float64(ref.offered)
	userBytes := float64(ref.putBytes)

	v["server.shed_engages"] = t["server.shed_engages"]
	v["server.batched_sync_ratio"] = ratio(t["server.batched_syncs"], t["server.batched_syncs"]+t["server.sync_flushes"])
	var vt float64
	for _, stage := range obs.BreakdownStages {
		vt += t["server.vt_"+stage+"_ns"]
	}
	for _, stage := range obs.BreakdownStages {
		v["server.vt_"+stage+"_share"] = ratio(t["server.vt_"+stage+"_ns"], vt)
	}

	v["cluster.node_ops_per_op"] = ratio(t["server.node_ops"], ops)
	for _, k := range []string{"shed_retries", "replica_sheds", "read_failovers", "healed_keys", "rebalances"} {
		v["cluster."+k] = t["cluster."+k]
	}

	v["fs.ops_per_op"] = ratio(t["fs.ops"], ops)
	v["fs.syncs"] = t["fs.syncs"]
	v["fs.metadata_flash_bytes_per_user_byte"] = ratio(t["flash.metadata_bytes"], userBytes)

	v["storman.absorb_ratio"] = ratio(t["storman.absorbed"], t["storman.host_written"])
	v["storman.flushed_bytes_per_user_byte"] = ratio(t["storman.flushed"], userBytes)
	v["storman.dram_read_ratio"] = ratio(t["storman.dram_reads"], t["storman.dram_reads"]+t["storman.flash_reads"])
	v["storman.evictions"] = t["storman.evictions"]
	v["storman.daemon_flushes"] = t["storman.daemon_flushes"]
	v["storman.copy_on_writes"] = t["storman.cows"]

	v["engine.write_amp"] = ratio(t["flash.bytes_programmed"], t["engine.host_bytes"])
	v["engine.cleans"] = t["engine.cleans"]
	v["engine.idle_clean_ratio"] = ratio(t["engine.idle_cleans"], t["engine.cleans"])
	v["engine.copied_pages_per_clean"] = ratio(t["engine.copied_pages"], t["engine.cleans"])
	v["engine.free_block_margin"] = g["engine.free_block_margin"]
	v["engine.delta_write_ratio"] = ratio(t["engine.delta_writes"], t["engine.host_writes"])
	v["engine.promotions"] = t["engine.promotions"]

	v["flash.programs"] = t["flash.programs"]
	v["flash.reads"] = t["flash.reads"]
	v["flash.erases"] = t["flash.erases"]
	v["flash.bytes_programmed"] = t["flash.bytes_programmed"]
	v["flash.read_stall_ms"] = t["flash.read_stall_ns"] / 1e6
	v["flash.max_erase_count"] = g["flash.max_erase_count"]
	v["flash.erase_cov"] = g["flash.erase_cov"]
	v["flash.energy_mj"] = mj(t["flash.energy_pj"])

	v["dram.ops"] = t["dram.ops"]
	v["dram.energy_mj"] = mj(t["dram.energy_pj"])

	v["obs.series_count"] = g["obs.series_count"]
}
