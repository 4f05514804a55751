// Fleet health rollup: one report for the whole cluster, aggregated
// from each node's SMART telemetry. (The rebalancer does not read it: the
// health sweep takes the one figure it needs, the free-block margin, as
// typed state from the node's server — see checkHealth.)
//
// The shape mirrors flash.HealthFromSnapshot one level up: everything is
// a pure function of a single merged obs.Snapshot in which each node's
// series carry a node label (Cluster.Snapshot builds it; ssmserve's
// telemetry merge produces the same shape). The live admin surface
// (/debug/fleet) and the offline `ssmtrace fleet` both call
// FleetFromSnapshot over such a snapshot, so the fleet view an operator
// scrapes is exactly reconstructible from a metrics dump.
package cluster

import (
	"fmt"
	"io"
	"sort"
	"strconv"

	"ssmobile/internal/flash"
	"ssmobile/internal/obs"
)

// refreshFleetGauges recomputes the directory-degradation and per-node
// state gauges from the router's own state. Plain Set gauges, written
// here and read wherever the registry is snapshotted — never
// read-through, so a flight-recorder dump taken inside checkHealth
// cannot re-enter the cluster mutex. Caller holds c.mu.
func (c *Cluster) refreshFleetGauges() {
	var under, tomb, stale int64
	want := c.cfg.Replicas + 1
	for _, m := range c.dir {
		for _, e := range m {
			if e.deleted {
				tomb++
			} else if len(e.holders) < want {
				under++
			}
			stale += int64(len(e.stale))
		}
	}
	c.underRepl.Set(under)
	c.tombKeys.Set(tomb)
	c.staleCopies.Set(stale)
	for i := range c.nodes {
		var up, cord int64
		if !c.down[i] {
			up = 1
		}
		if c.cordoned[i] {
			cord = 1
		}
		c.nodeUp[i].Set(up)
		c.nodeCordoned[i].Set(cord)
	}
}

// Snapshot captures the merged fleet view: the router's own registry
// (ledger counters, fleet gauges freshly recomputed, replica-latency
// summaries) plus every node's registry with a node label stamped onto
// its series, all sorted into one snapshot. This is the input
// FleetFromSnapshot wants, and what the ops surface serves at /metrics
// (server.AdminSource).
//
// Only the collection passes hold the cluster mutex — read-through
// gauges evaluate live simulation state that requests mutate under it.
// Stamping the node labels and merging work on the captured values, after
// the lock is released, so a scrape costs the data plane one pass over
// each registry and nothing more.
func (c *Cluster) Snapshot() obs.Snapshot {
	var router obs.Snapshot
	nodes := make([]obs.Snapshot, len(c.nodes))
	c.mu.Lock()
	c.refreshFleetGauges()
	if c.obs.Exports() {
		router = c.obs.Registry.Snapshot()
	}
	for i, n := range c.nodes {
		if n.Obs.Exports() {
			nodes[i] = n.Obs.Registry.Snapshot()
		}
	}
	c.mu.Unlock()
	for i, n := range c.nodes {
		nodes[i] = nodes[i].WithLabel("node", n.Name)
	}
	return router.Merge(nodes...)
}

// DumpFlight takes a flight record through fr under the cluster mutex,
// as the router's own cordon/kill/restart dumps are.
func (c *Cluster) DumpFlight(fr *obs.FlightRecorder, reason string) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return fr.Dump(reason)
}

// FleetReport is FleetFromSnapshot over a fresh Snapshot — what the ops
// surface serves at /debug/fleet. It returns the FleetReport as any
// because the server package, which declares the interface this
// satisfies, cannot import this one.
func (c *Cluster) FleetReport() (any, error) {
	return FleetFromSnapshot(c.Snapshot())
}

// FleetNode is one node's row in the fleet report.
type FleetNode struct {
	Name         string  `json:"name"`
	Up           bool    `json:"up"`
	Cordoned     bool    `json:"cordoned"`
	RingSharePct float64 `json:"ring_share_pct"`
	// Health is the node's own SMART report (nil when the snapshot has no
	// wear telemetry for the node — e.g. a node that never registered).
	Health *flash.HealthReport `json:"health,omitempty"`
}

// FleetReplicaRank is one rank's holder-latency summary from the
// router's serve_replica_latency histograms.
type FleetReplicaRank struct {
	Rank  int     `json:"rank"`
	Role  string  `json:"role"`
	Count int64   `json:"count"`
	P50   float64 `json:"p50_ns"`
	P99   float64 `json:"p99_ns"`
}

// FleetReport is the cluster-wide health summary served at /debug/fleet
// and printed by `ssmtrace fleet`. Field order is the JSON layout; keep
// it stable.
type FleetReport struct {
	Nodes []FleetNode `json:"nodes"`

	// Endurance rollup: the fleet's remaining erase budget against its
	// combined burn rate — the scale-out version of a single card's
	// lifetime-at-rate.
	RemainingEraseBudget int64   `json:"remaining_erase_budget"`
	EraseRatePerSec      float64 `json:"erase_rate_per_sec"`
	LifetimeSeconds      float64 `json:"lifetime_seconds_at_current_rate"`
	Lifetime             string  `json:"lifetime_at_current_rate"`

	// Wear spread across cards (max − min of the nodes' mean erase
	// counts): the imbalance a cluster-level leveling policy — migration
	// off hot cards — could still reclaim.
	MaxLifeUsedPct        float64 `json:"max_life_used_pct"`
	MinLifeUsedPct        float64 `json:"min_life_used_pct"`
	WearSpreadAcrossCards float64 `json:"wear_spread_across_cards"`

	// Directory degradation, from the router's fleet gauges.
	UnderReplicatedKeys int64 `json:"under_replicated_keys"`
	TombstoneKeys       int64 `json:"tombstone_keys"`
	StaleCopies         int64 `json:"stale_copies"`

	// Fan-out latency decomposition, from the router's per-rank
	// histograms; StragglerNS is the last replicated write's
	// slowest-minus-median holder gap.
	Replicas    []FleetReplicaRank `json:"replicas,omitempty"`
	StragglerNS int64              `json:"straggler_ns"`
}

// FleetFromSnapshot computes the fleet report from a merged snapshot in
// which per-node series carry a node label (Cluster.Snapshot's shape). It
// fails if the snapshot has no cluster-tier series at all.
func FleetFromSnapshot(snap obs.Snapshot) (FleetReport, error) {
	cl := obs.Labels{"layer": "cluster"}
	var rep FleetReport

	// Node discovery: every cluster_node_up series names one node. The
	// router registers these unconditionally, so an empty set means the
	// snapshot is not a fleet snapshot.
	type nodeState struct{ up, cordoned, sharePPM float64 }
	states := make(map[string]*nodeState)
	var names []string
	for _, m := range snap.Metrics {
		if m.Labels["layer"] != "cluster" {
			continue
		}
		name := m.Labels["node"]
		if name == "" {
			continue
		}
		st := states[name]
		if st == nil {
			st = &nodeState{}
			states[name] = st
			names = append(names, name)
		}
		switch m.Name {
		case "cluster_node_up":
			st.up = m.Value
		case "cluster_node_cordoned":
			st.cordoned = m.Value
		case "cluster_ring_share_ppm":
			st.sharePPM = m.Value
		}
	}
	if len(names) == 0 {
		return rep, fmt.Errorf("cluster: snapshot has no cluster_node_up series (not a fleet snapshot)")
	}
	sort.Strings(names)

	first := true
	for _, name := range names {
		st := states[name]
		fn := FleetNode{
			Name:         name,
			Up:           st.up > 0,
			Cordoned:     st.cordoned > 0,
			RingSharePct: st.sharePPM / 1e4,
		}
		if h, err := flash.HealthFromSnapshot(snap.FilterLabel("node", name), "flash"); err == nil {
			hc := h
			fn.Health = &hc
			rep.RemainingEraseBudget += h.RemainingEraseBudget
			rep.EraseRatePerSec += h.EraseRatePerSec
			if first || h.LifeUsedPct > rep.MaxLifeUsedPct {
				rep.MaxLifeUsedPct = h.LifeUsedPct
			}
			if first || h.LifeUsedPct < rep.MinLifeUsedPct {
				rep.MinLifeUsedPct = h.LifeUsedPct
			}
			if first {
				rep.WearSpreadAcrossCards = 0
			}
			first = false
		}
		rep.Nodes = append(rep.Nodes, fn)
	}
	// Wear spread across cards: max − min of the nodes' mean erase counts.
	var minMean, maxMean float64
	seen := false
	for _, fn := range rep.Nodes {
		if fn.Health == nil {
			continue
		}
		m := fn.Health.MeanEraseCount
		if !seen || m < minMean {
			minMean = m
		}
		if !seen || m > maxMean {
			maxMean = m
		}
		seen = true
	}
	if seen {
		rep.WearSpreadAcrossCards = maxMean - minMean
	}
	if rep.EraseRatePerSec > 0 {
		rep.LifetimeSeconds = float64(rep.RemainingEraseBudget) / rep.EraseRatePerSec
	}
	rep.Lifetime = fleetLifetime(rep.LifetimeSeconds)

	if m, ok := snap.Find("cluster_under_replicated_keys", cl); ok {
		rep.UnderReplicatedKeys = int64(m.Value)
	}
	if m, ok := snap.Find("cluster_tombstone_keys", cl); ok {
		rep.TombstoneKeys = int64(m.Value)
	}
	if m, ok := snap.Find("cluster_stale_copies", cl); ok {
		rep.StaleCopies = int64(m.Value)
	}
	if m, ok := snap.Find("serve_replica_straggler_ns", cl); ok {
		rep.StragglerNS = int64(m.Value)
	}
	for _, m := range snap.Metrics {
		if m.Name != "serve_replica_latency" || m.Labels["layer"] != "cluster" {
			continue
		}
		rank, err := strconv.Atoi(m.Labels["rank"])
		if err != nil {
			continue
		}
		rep.Replicas = append(rep.Replicas, FleetReplicaRank{
			Rank:  rank,
			Role:  m.Labels["role"],
			Count: m.Count,
			P50:   m.P50,
			P99:   m.P99,
		})
	}
	sort.Slice(rep.Replicas, func(i, j int) bool { return rep.Replicas[i].Rank < rep.Replicas[j].Rank })
	return rep, nil
}

// fleetLifetime mirrors the single-card lifetime formatting so the two
// reports read alike.
func fleetLifetime(s float64) string {
	const day = 86400.0
	switch {
	case s <= 0:
		return "unbounded"
	case s >= 365.25*day:
		return fmt.Sprintf("%.1fy", s/(365.25*day))
	case s >= day:
		return fmt.Sprintf("%.1fd", s/day)
	case s >= 3600:
		return fmt.Sprintf("%.1fh", s/3600)
	default:
		return fmt.Sprintf("%.0fs", s)
	}
}

// Fprint renders the report as the human-readable `ssmtrace fleet` text.
func (r FleetReport) Fprint(w io.Writer) {
	up, cordoned := 0, 0
	for _, n := range r.Nodes {
		if n.Up {
			up++
		}
		if n.Cordoned {
			cordoned++
		}
	}
	fmt.Fprintf(w, "fleet: %d nodes (%d up, %d cordoned)\n", len(r.Nodes), up, cordoned)
	fmt.Fprintf(w, "  %-8s %-5s %-8s %7s %10s %10s %8s %10s\n",
		"node", "up", "cordon", "share%", "life-used%", "mean-wear", "margin%", "lifetime")
	for _, n := range r.Nodes {
		upS, cordS := "up", "-"
		if !n.Up {
			upS = "down"
		}
		if n.Cordoned {
			cordS = "cordoned"
		}
		if n.Health == nil {
			fmt.Fprintf(w, "  %-8s %-5s %-8s %7.2f %10s %10s %8s %10s\n",
				n.Name, upS, cordS, n.RingSharePct, "-", "-", "-", "-")
			continue
		}
		h := n.Health
		margin := "-"
		if h.FreeBlockMargin >= 0 {
			margin = fmt.Sprintf("%.1f", 100*h.FreeBlockMargin)
		}
		fmt.Fprintf(w, "  %-8s %-5s %-8s %7.2f %10.3f %10.2f %8s %10s\n",
			n.Name, upS, cordS, n.RingSharePct, h.LifeUsedPct, h.MeanEraseCount, margin, h.Lifetime)
	}
	fmt.Fprintf(w, "  fleet lifetime at rate %s (%.4f erases/s against budget %d)\n",
		r.Lifetime, r.EraseRatePerSec, r.RemainingEraseBudget)
	fmt.Fprintf(w, "  life used across cards %.3f%%..%.3f%%, wear spread %.2f mean-erases\n",
		r.MinLifeUsedPct, r.MaxLifeUsedPct, r.WearSpreadAcrossCards)
	fmt.Fprintf(w, "  directory: %d under-replicated, %d tombstones, %d stale copies\n",
		r.UnderReplicatedKeys, r.TombstoneKeys, r.StaleCopies)
	if len(r.Replicas) > 0 {
		fmt.Fprintf(w, "  replica latency by rank (straggler gap %d ns):\n", r.StragglerNS)
		for _, rr := range r.Replicas {
			fmt.Fprintf(w, "    rank %d (%-7s) n=%-7d p50 %.0f ns  p99 %.0f ns\n",
				rr.Rank, rr.Role, rr.Count, rr.P50, rr.P99)
		}
	}
}
