// Router observability: the cluster tier's own telemetry, layered over
// (never into) the per-node observers.
//
// Three surfaces, all hanging off Config.Obs:
//
//   - cross-node request tracing: every logical request opens a
//     cluster-layer span on the router's private clock, and the fan-out
//     records one child span per holder carrying the holder's node name
//     and its individual latency. A replicated write is acknowledged at
//     its slowest holder; the child spans are that cost, decomposed.
//     The serve_replica_latency{role,rank} histograms and the straggler
//     gauge (slowest holder minus median) carry the same decomposition
//     as metrics;
//   - the event journal: control-plane transitions (cordon, migrate,
//     heal, kill, restart, replica shed, tombstone lifecycle) append to
//     the EventLog attached to the observer, stamped with virtual time;
//   - fleet gauges: directory degradation (under-replicated keys,
//     tombstones, stale copies) and per-node state (up, cordoned, ring
//     share), refreshed on every health sweep — plain gauges, written
//     under the cluster mutex, never read-through (a read-through gauge
//     collected during a flight-recorder dump taken inside checkHealth
//     would re-enter the cluster mutex and deadlock).
//
// The router clock is the piece that keeps this honest: it advances to
// max(arrival, its own position) per request and never reads or moves a
// node clock, so telemetry cannot feed back into simulated time — the
// determinism tests run the suite traced and untraced and require
// byte-identical stdout.
package cluster

import (
	"math"
	"sort"
	"strconv"
	"strings"

	"ssmobile/internal/obs"
	"ssmobile/internal/server"
	"ssmobile/internal/sim"
)

// holderLat is one holder's share of a fanned-out request: which node,
// and how long its copy of the operation took; failover marks a read a
// replica served because the primary could not.
type holderLat struct {
	node     int
	lat      sim.Duration
	failover bool
}

// initObservability wires the router's metrics at construction time —
// registration order is fixed (ledger counters, rank histograms, then
// fleet gauges, then per-node gauges in node order), which is what keeps
// parallel experiment runs' merged registries byte-identical.
func (c *Cluster) initObservability() {
	c.obs = c.cfg.Obs
	c.clock = sim.NewClock()
	lbl := obs.Labels{"layer": "cluster"}
	result := func(r string) obs.Labels { return obs.Labels{"layer": "cluster", "result": r} }
	c.completed = c.obs.Counter("requests_total", result("ok"))
	c.shed = c.obs.Counter("requests_total", result("shed"))
	c.notFound = c.obs.Counter("requests_total", result("notfound"))
	c.batchedSyncs = c.obs.Counter("batched_syncs_total", lbl)
	c.shedRetries = c.obs.Counter("cluster_shed_retries_total", lbl)
	c.replicaSheds = c.obs.Counter("cluster_replica_sheds_total", lbl)
	c.skippedReplicaWrites = c.obs.Counter("cluster_skipped_replica_writes_total", lbl)
	c.rebalances = c.obs.Counter("cluster_rebalances_total", lbl)
	c.migratedKeys = c.obs.Counter("cluster_migrated_keys_total", lbl)
	c.healedKeys = c.obs.Counter("cluster_healed_keys_total", lbl)
	c.readFailovers = c.obs.Counter("cluster_read_failovers_total", lbl)
	ranks := c.cfg.Replicas + 1
	c.repLat = make([]*obs.Histogram, ranks)
	for r := 0; r < ranks; r++ {
		role := "replica"
		if r == 0 {
			role = "primary"
		}
		c.repLat[r] = c.obs.Histogram("serve_replica_latency", obs.Labels{
			"layer": "cluster", "role": role, "rank": strconv.Itoa(r),
		})
	}
	c.straggler = c.obs.Gauge("serve_replica_straggler_ns", lbl)
	c.underRepl = c.obs.Gauge("cluster_under_replicated_keys", lbl)
	c.tombKeys = c.obs.Gauge("cluster_tombstone_keys", lbl)
	c.staleCopies = c.obs.Gauge("cluster_stale_copies", lbl)
	shares := c.ringShares()
	c.nodeUp = make([]*obs.Gauge, len(c.nodes))
	c.nodeCordoned = make([]*obs.Gauge, len(c.nodes))
	for i, n := range c.nodes {
		nl := obs.Labels{"layer": "cluster", "node": n.Name}
		c.nodeUp[i] = c.obs.Gauge("cluster_node_up", nl)
		c.nodeUp[i].Set(1)
		c.nodeCordoned[i] = c.obs.Gauge("cluster_node_cordoned", nl)
		// The ring never changes after construction, so the share gauge is
		// set once (parts per million — gauges carry int64).
		c.obs.Gauge("cluster_ring_share_ppm", nl).Set(int64(shares[i] * 1e6))
	}
}

// ringShares reports the fraction of the hash circle each node owns: a
// key lands on the first virtual point clockwise of its hash, so point
// p owns the arc from its predecessor to itself.
func (c *Cluster) ringShares() []float64 {
	shares := make([]float64, len(c.nodes))
	if len(c.ring) == 0 {
		return shares
	}
	circle := math.Ldexp(1, 64)
	prev := c.ring[len(c.ring)-1].hash
	for _, p := range c.ring {
		arc := p.hash - prev // uint64 wraparound measures the circular arc
		shares[p.node] += float64(arc) / circle
		prev = p.hash
	}
	return shares
}

// beginRequest advances the router clock to the request's start (its
// arrival, or the clock's position if that is later — arrivals are
// non-decreasing under the workload driver, but retried and replayed
// requests may carry older stamps) and opens the cluster-layer request
// span. Caller holds c.mu.
func (c *Cluster) beginRequest(req server.Request) (sim.Time, *obs.TraceContext) {
	start := req.Arrival
	if now := c.clock.Now(); now > start {
		start = now
	}
	c.clock.AdvanceTo(start)
	return start, c.obs.BeginRequest(c.clock, "cluster", req.Kind.String(), 0)
}

// finishRequest records the fan-out the dispatch left in c.hl: per-rank
// holder-latency histograms and the straggler gauge for writes, one
// holder child span per touched node, and the request root span. Caller
// holds c.mu.
func (c *Cluster) finishRequest(tc *obs.TraceContext, req server.Request, start sim.Time, resp server.Response, err error) {
	isWrite := req.Kind == server.OpPut || req.Kind == server.OpTruncate || req.Kind == server.OpDelete
	if isWrite && len(c.hl) > 0 {
		for rank, h := range c.hl {
			if rank < len(c.repLat) {
				c.repLat[rank].ObserveDuration(h.lat)
			}
		}
		if len(c.hl) > 1 {
			c.straggler.Set(int64(c.stragglerGap()))
		}
	}
	if tc == nil {
		return
	}
	for rank, h := range c.hl {
		role := "replica"
		switch {
		case req.Kind == server.OpSync:
			role = "sync"
		case req.Kind == server.OpGet:
			// The one holder that served the read.
			if !h.failover {
				role = "primary"
			}
		case rank == 0:
			role = "primary"
		}
		tc.HolderSpan(c.nodes[h.node].Name, role, start, start.Add(h.lat), 0, obs.OutcomeOK)
	}
	end := start
	if err == nil && resp.Latency > 0 {
		end = start.Add(resp.Latency)
	}
	if end > c.clock.Now() {
		c.clock.AdvanceTo(end)
	}
	tc.Finish(int64(resp.N), err)
}

// stragglerGap reports the last fan-out's slowest-holder latency minus
// the median holder latency — the tail cost of "acknowledged at the
// slowest holder". Caller holds c.mu; len(c.hl) >= 2.
func (c *Cluster) stragglerGap() sim.Duration {
	c.latScratch = append(c.latScratch[:0], c.hl...)
	sort.Slice(c.latScratch, func(a, b int) bool { return c.latScratch[a].lat < c.latScratch[b].lat })
	n := len(c.latScratch)
	return c.latScratch[n-1].lat - c.latScratch[(n-1)/2].lat
}

// logEvent appends one control-plane event to the journal attached to
// the router's observer; with no journal attached it costs a nil check.
func (c *Cluster) logEvent(t sim.Time, typ, node, cause string, keys int) {
	if l := c.obs.EventLog(); l != nil {
		l.Append(obs.Event{Time: t, Type: typ, Node: node, Cause: cause, Keys: keys})
	}
}

// dump captures a flight record through the recorder attached to the
// router's observer, if any — the cordon/kill/restart black-box hooks.
func (c *Cluster) dump(reason string) {
	if fr := c.obs.FlightRecorder(); fr != nil {
		fr.Dump(reason)
	}
}

// nodeNames joins the named nodes' display names ("n1+n3") for event
// fields that concern several nodes at once.
func (c *Cluster) nodeNames(idx []int) string {
	names := make([]string, len(idx))
	for i, n := range idx {
		names[i] = c.nodes[n].Name
	}
	return strings.Join(names, "+")
}

// ReplicaLatency exposes the router's per-rank holder-latency histogram
// (rank 0 is the primary) for after-the-run analysis — E16's per-holder
// p99 decomposition reads it directly. Nil when the rank is out of
// range.
func (c *Cluster) ReplicaLatency(rank int) *sim.Histogram {
	if rank < 0 || rank >= len(c.repLat) {
		return nil
	}
	return c.repLat[rank].Sim()
}

// StragglerGapNS reports the straggler gauge: the last replicated
// write's slowest-holder latency minus its median holder latency, in
// nanoseconds.
func (c *Cluster) StragglerGapNS() int64 {
	return c.straggler.Value()
}
