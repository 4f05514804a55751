package core

import (
	"fmt"
	"sort"

	"ssmobile/internal/obs"
	"ssmobile/internal/server"
	"ssmobile/internal/sim"
)

// E12Saturation is the serving-stack saturation study: a population of
// open-loop clients drives the object-storage service (internal/server)
// over the solid-state stack, and the client count × write-ratio grid
// sweeps the offered load through the point where the flash cleaner can
// no longer keep pace. Below the knee, idle-time cleaning and the DRAM
// write buffer hide flash's erase-before-write cycle exactly as the
// paper promises; past it, cleaning lands on the critical path, tail
// latency grows by orders of magnitude, and the admission controller
// starts shedding writes to keep the service responsive.
//
// Everything runs in virtual time in-process, so the table is a pure
// function of the seed: byte-identical across runs and across any
// -parallel level.
func E12Saturation(env *Env, seed int64) (*Table, error) {
	clientCounts := []int{1, 2, 4, 8, 16, 32}
	writeRatios := []float64{0.2, 0.6}

	t := &Table{
		ID: "E12",
		Title: "serving-stack saturation: open-loop clients vs cleaning bandwidth " +
			"(throughput, latency percentiles, load shedding)",
		Headers: []string{"clients", "write mix", "offered op/s", "served op/s",
			"p50", "p95", "p99", "shed", "cleans", "idle cleans"},
	}

	n := len(writeRatios) * len(clientCounts)
	rows := make([][]string, n)
	err := env.ForEach(n, func(i int, je *Env) error {
		w := writeRatios[i/len(clientCounts)]
		clients := clientCounts[i%len(clientCounts)]

		// The card is aged before serving: most of the flash filled with
		// a file and deleted, leaving dead pages the way months of use
		// would.
		card, err := NewServedCard(ServedCardConfig{System: E12Card(je.Obs()), AgeBytes: 6 << 20})
		if err != nil {
			return err
		}
		st, err := server.RunWorkload(card.Srv, E12Traffic(seed+int64(i), clients, 400, w))
		if err != nil {
			return fmt.Errorf("%d clients, %.0f%% writes: %w", clients, w*100, err)
		}
		fs := card.Sys.FTL.Stats()
		rows[i] = []string{
			fmt.Sprintf("%d", clients),
			fmt.Sprintf("%.0f%%", w*100),
			fmt.Sprintf("%.1f", st.OfferedRate()),
			fmt.Sprintf("%.1f", st.CompletedRate()),
			fmtDur(sim.Duration(st.Lat.Quantile(0.50))),
			fmtDur(sim.Duration(st.Lat.Quantile(0.95))),
			fmtDur(sim.Duration(st.Lat.Quantile(0.99))),
			fmt.Sprintf("%d", st.Shed),
			fmt.Sprintf("%d", fs.Cleans),
			fmt.Sprintf("%d", fs.IdleCleans),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.addRows(rows)
	t.Notes = append(t.Notes,
		"the flash card is aged before serving: most blocks hold dead pages, as after months of use;",
		"open-loop arrivals at 10 op/s per client; 4KB writes against 32KB Zipf-popular objects;",
		"below the knee idle cleaning absorbs the erase cost; past it p99 jumps and admission control sheds writes —",
		"the paper's cleaning-bandwidth concern rendered as a serving-stack degradation curve")
	return t, nil
}

// E12bAttribution re-runs points along the E12 saturation curve (plus a
// single-bank cell) with request-scoped tracing on and answers the
// question E12's aggregate percentiles cannot: *where* does the p99 go
// when the service tips past the knee? Every request is served under a
// trace context, the stack's spans self-attribute to latency stages
// (queue, buffer, flush, flash, clean, other — see internal/obs), and
// the table decomposes the tail — the slowest 1% of requests by
// in-service time — into per-stage shares, naming the dominant stall.
// Below the knee the tail is flash programs; past it the dominant
// component flips to cleaner/erase stall — induced cleans and
// background-erase bank-busy time the request had to wait out.
//
// Each cell runs against its own private observer (not the ambient one),
// so the table is byte-identical whether the caller enabled tracing or
// not; the private metrics and spans are merged into the cell's observer
// afterwards for the usual dumps.
func E12bAttribution(env *Env, seed int64) (*Table, error) {
	// Three points along the E12 60%-write saturation curve on the usual
	// 4-bank card, plus the past-the-knee point again on a single-bank
	// card: banking overlaps background erases with useful programs (E7),
	// so the 4-bank rows show the erase stall the banks could NOT hide —
	// with one bank nothing is hidden and the knee is laid bare.
	cells := []struct{ clients, banks int }{
		{2, 4}, {8, 4}, {32, 4}, {32, 1},
	}
	const w = 0.6

	t := &Table{
		ID: "E12b",
		Title: "latency attribution at the saturation knee: where served requests' " +
			"virtual time goes (request-scoped causal tracing)",
		Headers: []string{"clients", "banks", "served op/s", "shed", "p99 total", "p99 queue",
			"buffer", "flush", "flash", "clean", "dominant stall"},
	}

	n := len(cells)
	rows := make([][]string, n)
	err := env.ForEach(n, func(i int, je *Env) error {
		clients, banks := cells[i].clients, cells[i].banks

		// A private observer guarantees a live tracer (contexts need one)
		// and isolates the cell from whatever tracing the caller set up.
		// The ring is sized to hold the whole run, so the per-request
		// reconstruction below sees every span.
		priv := obs.New(1 << 18)
		system := E12Card(priv)
		system.Banks = banks
		// Aged deeper than E12 (7MB of history vs 6MB): serving starts at
		// the free-block margin, so every flushed block past the first few
		// must clean a victim first — the steady state a long-lived device
		// lives in, rather than E12's gentler entry into it.
		card, err := NewServedCard(ServedCardConfig{System: system, AgeBytes: 7 << 20})
		if err != nil {
			return err
		}
		// Same client grid, mix, and rates as the E12 60%-write rows, so
		// the two tables read side by side.
		st, err := server.RunWorkload(card.Srv, E12Traffic(seed+int64(i), clients, 400, w))
		if err != nil {
			return fmt.Errorf("%d clients: %w", clients, err)
		}

		// Reconstruct every request's breakdown from the recorded span
		// trees (the same reconstruction `ssmtrace attribute` performs on
		// a trace file) and aggregate the p99 tail: the slowest 1% of
		// requests by in-service time. Tail composition rather than
		// whole-run shares or per-stage p99s because the stall is
		// concentrated — past the knee a handful of requests absorb the
		// cleaner's whole catch-up debt while everyone else queues behind
		// them, so averages and single-stage percentiles both dilute it.
		// Queue is excluded from the composition (under open-loop
		// overload the inherited backlog trivially dwarfs service); the
		// question is what the service itself was doing at the tail.
		reqs, _ := obs.Attribute(priv.Tracer.Spans())
		service := func(b obs.Breakdown) sim.Duration { return b.Total() - b.Queue }
		sort.SliceStable(reqs, func(a, b int) bool {
			if d1, d2 := service(reqs[a].Breakdown), service(reqs[b].Breakdown); d1 != d2 {
				return d1 > d2
			}
			return reqs[a].Root.Start < reqs[b].Root.Start
		})
		tailN := (len(reqs) + 99) / 100
		var tail obs.Breakdown
		for _, req := range reqs[:tailN] {
			tail.Add(req.Breakdown)
		}
		total := service(tail)
		share := func(stage string) string {
			if total <= 0 {
				return "-"
			}
			return fmt.Sprintf("%.1f%%", 100*float64(tail.Stage(stage))/float64(total))
		}
		// The observer is this cell's own, so its queue-stage series is
		// this server's.
		queue := priv.Registry.Histogram("serve_latency_breakdown", obs.Labels{"layer": "server", "stage": obs.StageQueue})
		serviceStages := []string{obs.StageBuffer, obs.StageFlush, obs.StageFlash, obs.StageClean, obs.StageOther}
		dominant, domDur := "", sim.Duration(0)
		for _, stage := range serviceStages {
			if d := tail.Stage(stage); d > domDur {
				dominant, domDur = stage, d
			}
		}
		rows[i] = []string{
			fmt.Sprintf("%d", clients),
			fmt.Sprintf("%d", banks),
			fmt.Sprintf("%.1f", st.CompletedRate()),
			fmt.Sprintf("%d", st.Shed),
			fmtDur(sim.Duration(st.Lat.Quantile(0.99))),
			fmtDur(sim.Duration(queue.Collect().P99)),
			share(obs.StageBuffer),
			share(obs.StageFlush),
			share(obs.StageFlash),
			share(obs.StageClean),
			dominant,
		}
		je.Obs().Merge(priv)
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.addRows(rows)
	t.Notes = append(t.Notes,
		"same workload grid as the 60%-write rows of E12, on a card aged to its free-block margin;",
		"per-request span trees attribute virtual time to stages: queue (admission backlog), buffer",
		"(DRAM), flush (buffer-eviction residue), flash (programs/reads), clean (induced cleaner",
		"passes and erase-stall time paid waiting out a background erase's bank-busy window);",
		"stage columns decompose the p99 tail — the slowest 1% of requests by in-service time;",
		"below the knee the tail is flash programs; past it the dominant component flips to clean:",
		"the erase cost the paper's idle-time cleaning was hiding has landed on the request path",
		"(starker still with a single bank, where no parallelism overlaps the erase)")
	return t, nil
}
