// Fleet-observability tests over real node stacks: the event journal's
// exact agreement with the cluster counters under kill/restart, the
// fleet rollup's pure-function contract, and the admin-endpoint
// regression test (node-labelled /metrics, /debug/fleet, /debug/events
// scraped over HTTP exactly as an operator would).
package cluster_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ssmobile/internal/cluster"
	"ssmobile/internal/obs"
	"ssmobile/internal/server"
	"ssmobile/internal/sim"
)

// newObservedCluster assembles n fresh node stacks behind a router with
// a shared base observer carrying an event journal — the ssmserve
// cluster-mode layout — and returns the cluster and the base observer.
func newObservedCluster(t testing.TB, n int, cfg cluster.Config) (*cluster.Cluster, *obs.Observer) {
	t.Helper()
	cfg.Obs = obs.New(0)
	cfg.Obs.SetEventLog(obs.NewEventLog(0))
	return newTestCluster(t, n, cfg), cfg.Obs
}

func countEvents(l *obs.EventLog, typ string) (n int, keys int) {
	for _, ev := range l.Events() {
		if ev.Type == typ {
			n++
			keys += ev.Keys
		}
	}
	return n, keys
}

// TestEventJournalMatchesClusterStats drives a 3-node cluster through a
// kill/restart cycle and requires the journal to agree exactly with the
// cluster's own counters: every heal's key count, every replica shed,
// every tombstone created and resolved, every cordon — the journal is an
// account of what happened, not a sampling of it. Runs under -race in CI
// to also exercise the journal's locking.
func TestEventJournalMatchesClusterStats(t *testing.T) {
	cl, base := newObservedCluster(t, 3, cluster.Config{})
	el := base.EventLog()
	sess, err := cl.OpenSession("t")
	if err != nil {
		t.Fatal(err)
	}
	// A health sweep every eight requests, so that heals, sheds and
	// tombstones interleave with the traffic.
	at, ops := cl.Now(), 0
	do := func(req server.Request) (server.Response, error) {
		at = at.Add(50 * sim.Millisecond)
		ops++
		if ops%8 == 0 {
			cl.SweepHealth(at)
		}
		req.Arrival = at
		return sess.Do(req)
	}

	const keys = 24
	for k := uint64(0); k < keys; k++ {
		if _, err := do(server.Request{Kind: server.OpPut, Key: k, Data: payloadFor(k, 1)}); err != nil {
			t.Fatalf("put %d: %v", k, err)
		}
	}
	if _, err := do(server.Request{Kind: server.OpSync}); err != nil {
		t.Fatal(err)
	}

	cl.KillNode(0)
	// Writes while the node is down: replica sheds and, for deletes,
	// tombstones that resolve on restart.
	for k := uint64(0); k < keys; k++ {
		if _, err := do(server.Request{Kind: server.OpPut, Key: k, Data: payloadFor(k, 2)}); err != nil {
			t.Fatalf("put %d while down: %v", k, err)
		}
	}
	for k := uint64(0); k < 4; k++ {
		if _, err := do(server.Request{Kind: server.OpDelete, Key: k}); err != nil {
			t.Fatalf("delete %d while down: %v", k, err)
		}
	}
	if err := cl.RestartNode(0); err != nil {
		t.Fatal(err)
	}
	// A few reads drive the periodic sweep past the restart.
	for k := uint64(4); k < 12; k++ {
		if _, err := do(server.Request{Kind: server.OpGet, Key: k, Size: 2048}); err != nil {
			t.Fatalf("get %d: %v", k, err)
		}
	}

	st := cl.ClusterStats()
	if kills, _ := countEvents(el, obs.EventKill); kills != 1 {
		t.Errorf("journal has %d kill events, want 1", kills)
	}
	if restarts, _ := countEvents(el, obs.EventRestart); restarts != 1 {
		t.Errorf("journal has %d restart events, want 1", restarts)
	}
	if sheds, _ := countEvents(el, obs.EventReplicaShed); int64(sheds) != st.ReplicaSheds {
		t.Errorf("journal has %d replica-shed events, cluster counted %d", sheds, st.ReplicaSheds)
	}
	if _, healed := countEvents(el, obs.EventHeal); int64(healed) != st.HealedKeys {
		t.Errorf("journal heals cover %d keys, cluster counted %d", healed, st.HealedKeys)
	}
	if st.HealedKeys == 0 {
		t.Error("no keys healed — the scenario never degraded replication")
	}
	if cordons, _ := countEvents(el, obs.EventCordon); int64(cordons) != st.Rebalances {
		t.Errorf("journal has %d cordon events, cluster counted %d rebalances", cordons, st.Rebalances)
	}
	if _, migrated := countEvents(el, obs.EventMigrate); int64(migrated) != st.MigratedKeys {
		t.Errorf("journal migrations cover %d keys, cluster counted %d", migrated, st.MigratedKeys)
	}
	// A tombstone is created only when a delete misses a holder, so the
	// count is which of the four deleted keys the dead node held — but
	// after the restart's purge every pending delete must have resolved.
	created, _ := countEvents(el, obs.EventTombstoneCreate)
	resolved, _ := countEvents(el, obs.EventTombstoneResolve)
	if created == 0 {
		t.Error("no tombstones created — no delete-while-down missed a holder")
	}
	if created != resolved {
		t.Errorf("journal has %d tombstone-create but %d tombstone-resolve events; restart left deletes pending", created, resolved)
	}
	if el.Dropped() != 0 {
		t.Errorf("journal dropped %d events at default capacity", el.Dropped())
	}
}

// TestFleetRollup pins the rollup's pure-function contract: Snapshot
// → FleetFromSnapshot must discover every node, carry its up/cordoned
// state and health report, and aggregate the directory gauges — the same
// path /debug/fleet and `ssmtrace fleet` share.
func TestFleetRollup(t *testing.T) {
	cl, _ := newObservedCluster(t, 3, cluster.Config{})
	sess, err := cl.OpenSession("t")
	if err != nil {
		t.Fatal(err)
	}
	at := cl.Now()
	for k := uint64(0); k < 12; k++ {
		at = at.Add(50 * sim.Millisecond)
		if _, err := sess.Do(server.Request{Kind: server.OpPut, Key: k, Data: payloadFor(k, 1), Arrival: at}); err != nil {
			t.Fatalf("put %d: %v", k, err)
		}
	}
	cl.KillNode(2)
	// Writes skip the dead holder → under-replicated entries the gauges
	// must expose.
	for k := uint64(0); k < 12; k++ {
		at = at.Add(50 * sim.Millisecond)
		if _, err := sess.Do(server.Request{Kind: server.OpPut, Key: k, Data: payloadFor(k, 2), Arrival: at}); err != nil {
			t.Fatalf("put %d while down: %v", k, err)
		}
	}

	rep, err := cluster.FleetFromSnapshot(cl.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Nodes) != 3 {
		t.Fatalf("rollup found %d nodes, want 3", len(rep.Nodes))
	}
	var share float64
	for _, n := range rep.Nodes {
		share += n.RingSharePct
		if n.Name == "n2" {
			if n.Up {
				t.Error("killed node reported up")
			}
		} else {
			if !n.Up {
				t.Errorf("node %s reported down", n.Name)
			}
			if n.Health == nil {
				t.Errorf("node %s has no health report", n.Name)
			} else if n.Health.Blocks == 0 {
				t.Errorf("node %s health report saw no flash geometry", n.Name)
			}
		}
	}
	if share < 99 || share > 101 {
		t.Errorf("ring shares sum to %.2f%%, want ~100%%", share)
	}
	if rep.UnderReplicatedKeys == 0 {
		t.Error("rollup shows no under-replicated keys with a holder down")
	}
	if len(rep.Replicas) != 2 {
		t.Errorf("rollup has %d replica-rank rows, want 2 (primary + one replica)", len(rep.Replicas))
	}

	var buf strings.Builder
	rep.Fprint(&buf)
	for _, want := range []string{"fleet: 3 nodes", "n0", "n2", "under-replicated"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("rendered rollup missing %q:\n%s", want, buf.String())
		}
	}
}

// TestAdminEndpointsServeFleetTelemetry is the endpoint regression test:
// a 2-node cluster wired exactly as ssmserve wires it, scraped over
// HTTP. /metrics must carry node-labelled per-node series and the
// cluster-layer series; /debug/fleet must decode to a FleetReport with
// both nodes up; /debug/events must replay through obs.LoadEvents.
func TestAdminEndpointsServeFleetTelemetry(t *testing.T) {
	cl, base := newObservedCluster(t, 2, cluster.Config{})
	sess, err := cl.OpenSession("t")
	if err != nil {
		t.Fatal(err)
	}
	at := cl.Now()
	for k := uint64(0); k < 8; k++ {
		at = at.Add(50 * sim.Millisecond)
		if _, err := sess.Do(server.Request{Kind: server.OpPut, Key: k, Data: payloadFor(k, 1), Arrival: at}); err != nil {
			t.Fatalf("put %d: %v", k, err)
		}
	}

	// Wire the admin exactly as ssmserve's cluster mode does: the surface
	// speaks for the cluster, bound to the router's observer and journal.
	admin := server.NewAdmin(cl, base)
	ts := httptest.NewServer(admin.Handler())
	defer ts.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d: %s", path, resp.StatusCode, body)
		}
		return string(body)
	}

	metrics := get("/metrics")
	for _, want := range []string{
		`node="n0"`, `node="n1"`, // per-node series survived the merge
		"serve_replica_latency", "cluster_node_up", "cluster_ring_share_ppm",
		"cluster_under_replicated_keys",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}

	var rep cluster.FleetReport
	if err := json.Unmarshal([]byte(get("/debug/fleet")), &rep); err != nil {
		t.Fatalf("/debug/fleet: %v", err)
	}
	if len(rep.Nodes) != 2 || !rep.Nodes[0].Up || !rep.Nodes[1].Up {
		t.Errorf("/debug/fleet: want 2 nodes up, got %+v", rep.Nodes)
	}

	events, _, err := obs.LoadEvents(strings.NewReader(get("/debug/events")))
	if err != nil {
		t.Fatalf("/debug/events: %v", err)
	}
	_ = events // an empty journal is valid — the parse is the contract
}

// TestRouterAttributionMatchesRootSpans attributes every request a
// 3-node router recorded: a request's holder spans overlap its root
// instead of nesting in it, so each breakdown must total the root's
// queue plus its duration, never more.
func TestRouterAttributionMatchesRootSpans(t *testing.T) {
	cl, base := newObservedCluster(t, 3, cluster.Config{})
	sess, err := cl.OpenSession("t")
	if err != nil {
		t.Fatal(err)
	}
	at := cl.Now()
	for i := uint64(0); i < 60; i++ {
		req := server.Request{Kind: server.OpPut, Key: i % 20, Data: payloadFor(i, 1)}
		switch i % 6 {
		case 3:
			req = server.Request{Kind: server.OpGet, Key: (i - 1) % 20, Size: 2048} // put just before
		case 5:
			req = server.Request{Kind: server.OpSync}
		}
		at = at.Add(5 * sim.Millisecond)
		req.Arrival = at
		if _, err := sess.Do(req); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	reqs, _ := obs.Attribute(base.Tracer.Spans())
	if len(reqs) != 60 {
		t.Fatalf("attributed %d requests, want 60", len(reqs))
	}
	holders := 0
	for _, req := range reqs {
		holders += req.Spans - 1
		if got, want := req.Breakdown.Total(), req.Root.Queue+req.Root.Duration(); got != want {
			t.Errorf("%s/%s @%v: attributed %v, want queue + root = %v", req.Root.Layer, req.Root.Op, req.Root.Start, got, want)
		}
	}
	if holders == 0 {
		t.Fatal("no request recorded a holder span")
	}
}
