// Command ssmserve exposes the solid-state storage stack as a
// multi-tenant object-storage service over TCP — the serving-stack form
// of the paper's write-buffering and cleaning argument. See DESIGN.md §9
// for the service and backpressure model and experiment E12 (ssmsim e12)
// for the deterministic saturation study.
//
// Usage:
//
//	ssmserve [flags] serve        serve until SIGINT/SIGTERM, then drain
//	ssmserve [flags] smoke        self-contained smoke run: serve on a
//	                              loopback port, drive a short seeded
//	                              workload over TCP, verify zero
//	                              unexpected errors, exit cleanly
//
// serve flags: -addr (default 127.0.0.1:7633), -dram/-flash/-buffer MB
// sizes, -idle-clean blocks, -high/-low admission watermarks,
// -sync-window group-commit window, plus the usual -metrics and
// -cpuprofile/-memprofile outputs.
//
// -nodes N (either subcommand) serves a cluster instead of one card:
// N in-process nodes, each its own card stack, behind the consistent-hash
// router (internal/cluster) — per-tenant/key placement, primary+replica
// writes, node-local shed retry, and health-driven rebalancing. The size,
// engine, admission and sync-window flags apply to each node; the ops
// surface answers for every node (/debug/health?node=<name> picks one).
// See DESIGN.md §13 and experiment E14 (ssmsim e14).
//
// smoke flags: -clients, -ops, -seed, -write ratio. CI runs smoke to
// gate the server path: the run fails on any error other than the
// typed overload shed.
//
// The protocol is line-oriented text with binary payloads (see
// internal/server/net.go); a session is debuggable with nc(1):
//
//	$ nc 127.0.0.1 7633
//	hello alice
//	ok 0
//	sync
//	ok 0
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"

	"ssmobile/internal/cluster"
	"ssmobile/internal/core"
	"ssmobile/internal/flash"
	"ssmobile/internal/obs"
	"ssmobile/internal/prof"
	"ssmobile/internal/server"
	"ssmobile/internal/sim"
	"ssmobile/internal/workload"
)

func main() {
	nodeCount := flag.Int("nodes", 1, "cluster size: 1 serves a single card; N>1 shards tenants' keys over N card stacks by consistent hash, with primary+replica writes and health-driven rebalancing (the card and admission flags apply per node)")
	dramMB := flag.Int64("dram", 8, "DRAM size in MB")
	flashMB := flag.Int64("flash", 32, "flash size in MB")
	bufferMB := flag.Int64("buffer", 2, "write-buffer region in MB")
	idleClean := flag.Int("idle-clean", 8, "idle-cleaning free-block target: in an idle gap the cleaner runs until this many blocks are free or the next request arrives, finishing the clean in flight (0 disables idle cleaning)")
	engineName := flag.String("engine", "ftl", "storage backend: ftl (page-mapped translation layer) or pdl (page-differential logging)")
	high := flag.Float64("high", 0.9, "admission high watermark (buffer occupancy fraction)")
	low := flag.Float64("low", 0.75, "admission low watermark")
	syncWindow := flag.Duration("sync-window", 0, "sync group-commit window (0 = default 50ms)")
	metricsOut := flag.String("metrics", "", "write a JSON metrics snapshot to this file at exit")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")

	addr := flag.String("addr", "127.0.0.1:7633", "serve: listen address")
	adminAddr := flag.String("admin", "", "ops-surface HTTP address (/metrics, /healthz, /debug/pprof, /debug/flightrecord); empty disables (smoke always binds one on 127.0.0.1:0)")
	flightDir := flag.String("flight", "", "flight-recorder output directory; empty disables the recorder")

	clients := flag.Int("clients", 4, "smoke: concurrent clients")
	ops := flag.Int("ops", 200, "smoke: requests per client")
	seed := flag.Int64("seed", 1993, "smoke: workload seed")
	writeRatio := flag.Float64("write", 0.4, "smoke: write fraction of the mix")

	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ssmserve [flags] serve | smoke\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}

	stopCPU, err := prof.StartCPU(*cpuProfile)
	if err != nil {
		fatal(err)
	}
	o := obs.New(0)
	obs.SetDefault(o)

	svc, err := build(buildConfig{
		nodes:  *nodeCount,
		dramMB: *dramMB, flashMB: *flashMB, bufferMB: *bufferMB,
		idleClean: *idleClean, engine: *engineName, high: *high, low: *low,
		syncWindow: sim.D(*syncWindow),
		obs:        o,
	})
	if err != nil {
		fatal(err)
	}

	// Smoke provisions its own temporary flight-record directory when none
	// is given so CI exercises the dump path unconditionally.
	fdir := *flightDir
	if fdir == "" && flag.Arg(0) == "smoke" {
		tmp, err := os.MkdirTemp("", "ssmserve-flight-")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(tmp)
		fdir = tmp
	}
	if fdir != "" {
		if err := svc.recordFlights(fdir); err != nil {
			fatal(err)
		}
	}

	var runErr error
	switch flag.Arg(0) {
	case "serve":
		runErr = serve(svc.tcp, svc.admin, *addr, *adminAddr)
	case "smoke":
		runErr = smoke(svc.tcp, svc.admin, smokeConfig{
			clients: *clients, ops: *ops, seed: *seed, writeRatio: *writeRatio,
			nodes: *nodeCount,
		})
	default:
		flag.Usage()
		os.Exit(2)
	}

	svc.mergeTelemetry()
	if err := obs.DumpFiles(o, *metricsOut, "", ""); err != nil {
		fmt.Fprintln(os.Stderr, "ssmserve:", err)
		if runErr == nil {
			runErr = err
		}
	}
	if err := prof.WriteHeap(*memProfile); err != nil {
		fmt.Fprintln(os.Stderr, "ssmserve:", err)
		if runErr == nil {
			runErr = err
		}
	}
	stopCPU()
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "ssmserve:", runErr)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ssmserve:", err)
	os.Exit(1)
}

type buildConfig struct {
	nodes                     int
	dramMB, flashMB, bufferMB int64
	idleClean                 int
	engine                    string
	high, low                 float64
	syncWindow                sim.Duration
	obs                       *obs.Observer
}

// service is what build assembles: the TCP front end and the ops
// surface over one card or a cluster of them.
type service struct {
	tcp   *server.TCP
	admin *server.Admin
	// cards are the card stacks behind the service, one per node.
	cards []*core.ServedCard
	// obs is the ambient observer, the one the ops surface is bound to and
	// the flight recorder records from: one card reports to it directly, a
	// cluster's router does and mergeTelemetry folds the per-node
	// telemetry into it at exit.
	obs *obs.Observer
}

// build assembles the service: bc.nodes card stacks from the one
// constructor, then the front end and the ops surface over a single
// card's server, or over the consistent-hash cluster router across N of
// them.
func build(bc buildConfig) (*service, error) {
	cards := make([]*core.ServedCard, max(bc.nodes, 1))
	for i := range cards {
		// One card reports to the ambient observer. Each card of a cluster
		// gets a ring name and a private observer, so the fleet view
		// reports per-card wear (the SMART report is meaningless over a
		// mixed registry).
		name, o, incident := "", bc.obs, "shed-engage"
		if len(cards) > 1 {
			name, o = fmt.Sprintf("n%d", i), obs.New(0)
			incident += "-" + name
		}
		card, err := core.NewServedCard(core.ServedCardConfig{
			Name: name,
			System: core.SolidStateConfig{
				DRAMBytes:       bc.dramMB << 20,
				FlashBytes:      bc.flashMB << 20,
				BufferBytes:     bc.bufferMB << 20,
				IdleCleanBlocks: bc.idleClean,
				Engine:          bc.engine,
				Obs:             o,
			},
			Server: server.Config{
				HighWatermark:   bc.high,
				LowWatermark:    bc.low,
				SyncBatchWindow: bc.syncWindow,
				OnShedEngage: func() {
					// Capture the span ring the moment overload protection kicks
					// in — the spans leading up to it are the interesting ones.
					if fr := bc.obs.FlightRecorder(); fr != nil {
						fr.Dump(incident)
					}
				},
			},
		})
		if err != nil {
			return nil, err
		}
		cards[i] = card
	}
	// What is served: the one card, or the router over all of them.
	var backend interface {
		server.Service
		server.AdminSource
	} = cards[0].Srv
	if len(cards) > 1 {
		nodes := make([]*cluster.Node, len(cards))
		for i, card := range cards {
			nodes[i] = card.Node
		}
		// The router's own telemetry (ledger, replica-latency fan-out,
		// fleet gauges, cluster request spans) lives on the ambient
		// observer, and so does the event journal its control plane writes:
		// /debug/events and incident dumps both see the history.
		bc.obs.SetEventLog(obs.NewEventLog(0))
		cl, err := cluster.New(nodes, cluster.Config{Obs: bc.obs})
		if err != nil {
			return nil, err
		}
		backend = cl
	}
	return &service{
		tcp:   server.NewTCP(backend),
		admin: server.NewAdmin(backend, bc.obs),
		cards: cards,
		obs:   bc.obs,
	}, nil
}

// recordFlights installs a flight recorder writing to dir. It snapshots
// the ambient observer's recent span ring plus metrics on incidents
// (shed-engage, drain, power-cut remount; a cluster's cordon, kill and
// restart) and on demand; the admin endpoint, the shed-engage hooks, the
// router and the drain path all find it on that observer.
func (svc *service) recordFlights(dir string) error {
	fr, err := obs.NewFlightRecorder(svc.obs, dir, 0, 0)
	if err != nil {
		return err
	}
	svc.obs.SetFlightRecorder(fr)
	return nil
}

// mergeTelemetry folds a cluster's per-node telemetry into the ambient
// observer at exit, stamping each node's series with its node label so
// identically-named per-node series survive into the merged registry
// (and the -metrics dump ssmtrace fleet reads) instead of colliding. A
// single card already reports there.
func (svc *service) mergeTelemetry() {
	for _, card := range svc.cards {
		if card.Obs != svc.obs {
			svc.obs.MergeLabeled(card.Obs, obs.Labels{"node": card.Name})
		}
	}
}

// serve listens until SIGINT/SIGTERM, then drains: in-flight requests
// complete, a final sync runs, and the process exits 0.
func serve(tcp *server.TCP, admin *server.Admin, addr, adminAddr string) error {
	// Catch the signals before announcing the listener: a supervisor may
	// stop the process the moment it reads the announcement, and until
	// Notify runs a SIGTERM kills it instead of draining it.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	if err := tcp.Listen(addr); err != nil {
		return err
	}
	if adminAddr != "" {
		if err := admin.Listen(adminAddr); err != nil {
			return err
		}
		defer admin.Shutdown()
		fmt.Printf("ssmserve: ops surface on http://%s/metrics\n", admin.Addr())
	}
	fmt.Printf("ssmserve: listening on %s\n", tcp.Addr())
	<-sig
	fmt.Println("ssmserve: draining")
	admin.SetDraining(true)
	if err := tcp.Shutdown(); err != nil {
		return err
	}
	if fr := obs.Default().FlightRecorder(); fr != nil {
		fr.Dump("drain")
	}
	fmt.Println("ssmserve: drained, all data stable")
	return nil
}

type smokeConfig struct {
	clients, ops int
	seed         int64
	writeRatio   float64
	nodes        int
}

// smoke serves on a loopback port and drives every generated client
// over a real TCP connection from its own goroutine. Overload sheds are
// tolerated (they are the admission control working); anything else
// fails the run. The ops surface is exercised as part of the gate: the
// run scrapes /metrics, validates the exposition, and verifies the
// drain-time flight record loads back.
func smoke(tcp *server.TCP, admin *server.Admin, sc smokeConfig) error {
	if err := tcp.Listen("127.0.0.1:0"); err != nil {
		return err
	}
	if err := admin.Listen("127.0.0.1:0"); err != nil {
		return err
	}
	defer admin.Shutdown()
	addr := tcp.Addr().String()
	fmt.Printf("ssmserve: smoke on %s, %d clients x %d ops, seed %d\n",
		addr, sc.clients, sc.ops, sc.seed)

	// The E12 traffic over a wider key space, so a short run still
	// reaches flash; the TCP clients are closed-loop, so the generated
	// arrival times go unused.
	cfg := core.E12Traffic(sc.seed, sc.clients, sc.ops, sc.writeRatio)
	cfg.Keys = 64

	var wg sync.WaitGroup
	errs := make([]error, sc.clients)
	done := make([]int, sc.clients)
	shed := make([]int, sc.clients)
	for i := 0; i < sc.clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			done[id], shed[id], errs[id] = smokeClient(addr, cfg, id)
		}(i)
	}
	wg.Wait()

	// Scrape the ops surface while the server is still live, before the
	// drain tears anything down — exactly what a monitoring agent sees.
	if err := scrapeMetrics(admin.Addr().String(), sc.nodes); err != nil {
		return fmt.Errorf("smoke /metrics: %w", err)
	}
	if err := scrapeHealthz(admin.Addr().String()); err != nil {
		return fmt.Errorf("smoke /healthz: %w", err)
	}
	for i := 0; i < max(sc.nodes, 1); i++ {
		// One card answers /debug/health bare; a cluster's cards by name.
		query := ""
		if sc.nodes > 1 {
			query = fmt.Sprintf("?node=n%d", i)
		}
		if err := scrapeHealth(admin.Addr().String(), query); err != nil {
			return fmt.Errorf("smoke /debug/health%s: %w", query, err)
		}
	}
	if sc.nodes > 1 {
		if err := scrapeFleet(admin.Addr().String(), sc.nodes); err != nil {
			return fmt.Errorf("smoke /debug/fleet: %w", err)
		}
		if err := scrapeEvents(admin.Addr().String()); err != nil {
			return fmt.Errorf("smoke /debug/events: %w", err)
		}
	}
	admin.SetDraining(true)
	if err := tcp.Shutdown(); err != nil {
		return err
	}
	if fr := obs.Default().FlightRecorder(); fr != nil {
		path, err := fr.Dump("drain")
		if err != nil {
			return fmt.Errorf("smoke flight dump: %w", err)
		}
		rec, err := obs.ReadFlightRecord(path)
		if err != nil {
			return fmt.Errorf("smoke flight record does not load: %w", err)
		}
		fmt.Printf("ssmserve: flight record %q, %d spans, %d metric samples\n",
			rec.Reason, len(rec.Spans), len(rec.Metrics.Metrics))
	}
	var completed, sheds int
	for i := range errs {
		if errs[i] != nil {
			return fmt.Errorf("smoke client %d: %w", i, errs[i])
		}
		completed += done[i]
		sheds += shed[i]
	}
	fmt.Printf("ssmserve: smoke ok, %d requests completed, %d shed, clean drain\n", completed, sheds)
	return nil
}

// scrape fetches one ops-surface endpoint while the service is live,
// requiring HTTP 200.
func scrape(adminAddr, path string) ([]byte, error) {
	resp, err := http.Get("http://" + adminAddr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %s", resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// scrapeMetrics fetches /metrics over HTTP and validates the Prometheus
// text exposition, requiring the series an operator dashboard depends
// on. A malformed line or a missing series fails the smoke run. In
// cluster mode (nodes > 1) the scrape additionally requires the router's
// replica-latency fan-out series and a node-labelled per-node sample —
// the regression the fleet snapshot exists to prevent is identically
// named node series collapsing into one.
func scrapeMetrics(adminAddr string, nodes int) error {
	body, err := scrape(adminAddr, "/metrics")
	if err != nil {
		return err
	}
	required := []string{
		"requests_total",
		"serve_latency_breakdown",
		"free_blocks",
		"buffer_occupancy",
		// Wear-attribution surface: cause-labelled flash accounting,
		// write amplification, the per-bank wear distribution and the
		// windowed burn rates the health report divides into the budget.
		"flash_bytes_programmed_total",
		"erases_total",
		"write_amplification",
		"wear_erase_count",
		"wear_blocks_le",
		"erase_rate_per_s",
		// The idle cleaner's decision: gaps that ended with the pool
		// under its target, and cleans per gap that ran any.
		"idle_clean_yields_total",
		"idle_clean_burst",
		// The bank question: where the waiting is (stall by op, busy
		// time by bank) and what the engine's two bank decisions got.
		"stall_ns_total",
		"bank_busy_ns_total",
		"victim_bank_class_total",
		"head_opened_in_busy_bank_total",
	}
	if nodes > 1 {
		required = append(required,
			"serve_replica_latency",
			"cluster_node_up",
			"cluster_ring_share_ppm",
			"cluster_under_replicated_keys",
		)
	}
	if err := obs.CheckExposition(body, required); err != nil {
		return err
	}
	if nodes > 1 {
		for i := 0; i < nodes; i++ {
			label := fmt.Sprintf("node=%q", fmt.Sprintf("n%d", i))
			if !strings.Contains(string(body), label) {
				return fmt.Errorf("exposition has no %s-labelled series", label)
			}
		}
	}
	fmt.Printf("ssmserve: /metrics ok, %d bytes, required series present\n", len(body))
	return nil
}

// scrapeFleet fetches the cluster-wide /debug/fleet rollup and sanity
// checks it: every configured node present and up (smoke kills nobody).
func scrapeFleet(adminAddr string, nodes int) error {
	body, err := scrape(adminAddr, "/debug/fleet")
	if err != nil {
		return err
	}
	var rep cluster.FleetReport
	if err := json.Unmarshal(body, &rep); err != nil {
		return err
	}
	if len(rep.Nodes) != nodes {
		return fmt.Errorf("fleet report has %d nodes, want %d", len(rep.Nodes), nodes)
	}
	for _, n := range rep.Nodes {
		if !n.Up {
			return fmt.Errorf("fleet report says node %s is down", n.Name)
		}
	}
	fmt.Printf("ssmserve: /debug/fleet ok, %d nodes up, fleet lifetime %s\n",
		len(rep.Nodes), rep.Lifetime)
	return nil
}

// scrapeEvents fetches the /debug/events journal and verifies it parses
// as an event stream (it may legitimately be empty — a healthy smoke run
// triggers no control-plane transitions).
func scrapeEvents(adminAddr string) error {
	body, err := scrape(adminAddr, "/debug/events")
	if err != nil {
		return err
	}
	events, _, err := obs.LoadEvents(bytes.NewReader(body))
	if err != nil {
		return err
	}
	fmt.Printf("ssmserve: /debug/events ok, %d events\n", len(events))
	return nil
}

// scrapeHealthz fetches /healthz while the service is live: 200, serving
// or (a card protecting itself) shedding, and exactly the four fields
// every mode answers with — one card and N cards share the document.
func scrapeHealthz(adminAddr string) error {
	body, err := scrape(adminAddr, "/healthz")
	if err != nil {
		return err
	}
	var doc struct {
		Status, State      *string
		Draining, Shedding *bool
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return err
	}
	if doc.Status == nil || doc.State == nil || doc.Draining == nil || doc.Shedding == nil {
		return fmt.Errorf("document lacks one of status, state, draining, shedding")
	}
	fmt.Printf("ssmserve: /healthz ok, status %s, state %s\n", *doc.Status, *doc.State)
	return nil
}

// scrapeHealth fetches the SMART-style /debug/health report (query
// selects a cluster's card: "?node=n1") and sanity checks the document
// an operator (or ssmtrace health) would read.
func scrapeHealth(adminAddr, query string) error {
	body, err := scrape(adminAddr, "/debug/health"+query)
	if err != nil {
		return err
	}
	var rep flash.HealthReport
	if err := json.Unmarshal(body, &rep); err != nil {
		return err
	}
	if rep.Device != "flash" || rep.Blocks <= 0 || rep.EnduranceCycles <= 0 {
		return fmt.Errorf("implausible health report: %+v", rep)
	}
	fmt.Printf("ssmserve: /debug/health%s ok, life used %.4f%%, lifetime %s\n",
		query, rep.LifeUsedPct, rep.Lifetime)
	return nil
}

// smokeClient replays one generated stream over TCP. Reads against keys
// nothing has written yet come back notfound; that (and overload sheds)
// is expected, every other error is fatal.
func smokeClient(addr string, cfg workload.Config, id int) (completed, shed int, err error) {
	cl, err := server.Dial(addr, fmt.Sprintf("smoke%d", id))
	if err != nil {
		return 0, 0, err
	}
	defer cl.Close()
	gen := workload.NewClient(cfg, id)
	for {
		op, ok := gen.Next()
		if !ok {
			return completed, shed, nil
		}
		var opErr error
		switch op.Kind {
		case workload.Read:
			_, opErr = cl.Get(op.Key, op.Offset, int64(op.Size))
		case workload.Write:
			data := make([]byte, op.Size)
			for i := range data {
				data[i] = byte(op.Key + uint64(i))
			}
			_, opErr = cl.Put(op.Key, op.Offset, data)
		case workload.Truncate:
			opErr = cl.Truncate(op.Key, int64(op.Size))
		case workload.Delete:
			opErr = cl.Delete(op.Key)
		case workload.Sync:
			_, opErr = cl.Sync()
		}
		switch {
		case opErr == nil:
			completed++
		case errors.Is(opErr, server.ErrOverloaded):
			shed++
		case errors.Is(opErr, server.ErrNotFound):
			// a key this client never wrote (or deleted): expected
		default:
			return completed, shed, fmt.Errorf("op %d (%v key %d): %w", op.Seq, op.Kind, op.Key, opErr)
		}
	}
}
