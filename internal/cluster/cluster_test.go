// End-to-end cluster tests over real node stacks (assembled through
// core, which is why these live in the external test package): replica
// consistency across a node kill/restart — the synced data a card holds
// must survive its node's power cut via the copies on its peers. (The
// determinism contract for the cluster experiments E14 and E16 is held
// by internal/core's goldens at -parallel 1 and 8.)
package cluster_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"ssmobile/internal/cluster"
	"ssmobile/internal/core"
	"ssmobile/internal/obs"
	"ssmobile/internal/server"
	"ssmobile/internal/sim"
)

// newTestNode builds one node — E14's 8 MB card on a private observer —
// on the given engine ("" for the default) with age bytes of history
// streamed through its card.
func newTestNode(t testing.TB, name, engine string, age int64) *cluster.Node {
	t.Helper()
	system := core.E12Card(obs.New(0))
	system.Engine = engine
	card, err := core.NewServedCard(core.ServedCardConfig{Name: name, System: system, AgeBytes: age})
	if err != nil {
		t.Fatal(err)
	}
	return card.Node
}

// newTestCluster assembles n fresh (unaged) node stacks behind a router.
func newTestCluster(t testing.TB, n int, cfg cluster.Config) *cluster.Cluster {
	t.Helper()
	nodes := make([]*cluster.Node, n)
	for i := range nodes {
		nodes[i] = newTestNode(t, fmt.Sprintf("n%d", i), "", 0)
	}
	cl, err := cluster.New(nodes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func payloadFor(key uint64, version byte) []byte {
	p := make([]byte, 2048)
	for i := range p {
		p[i] = byte(key)*7 + version + byte(i)
	}
	return p
}

// TestReplicaConsistencyAcrossKillRestart is the cluster's durability
// contract end to end: synced writes survive a node's power cut through
// the replicas on its peers; reads fail over while the node is down;
// writes made in its absence never resurface stale from its recovered
// card; and the restart heal sweep returns every key to the target copy
// count.
func TestReplicaConsistencyAcrossKillRestart(t *testing.T) {
	cl := newTestCluster(t, 3, cluster.Config{Replicas: 1})
	sess, err := cl.OpenSession("t")
	if err != nil {
		t.Fatal(err)
	}
	at := cl.Now()
	do := func(req server.Request) (server.Response, error) {
		at = at.Add(50 * sim.Millisecond)
		req.Arrival = at
		return sess.Do(req)
	}

	const keys = 24
	for k := uint64(0); k < keys; k++ {
		if _, err := do(server.Request{Kind: server.OpPut, Key: k, Data: payloadFor(k, 1)}); err != nil {
			t.Fatalf("put %d: %v", k, err)
		}
	}
	// Make it all stable everywhere it lives: the power-failure contract
	// only covers synced data.
	if _, err := do(server.Request{Kind: server.OpSync}); err != nil {
		t.Fatalf("sync: %v", err)
	}

	checkAll := func(stage string, version func(k uint64) byte) {
		t.Helper()
		for k := uint64(0); k < keys; k++ {
			resp, err := do(server.Request{Kind: server.OpGet, Key: k, Size: 2048})
			if err != nil {
				t.Fatalf("%s: get %d: %v", stage, k, err)
			}
			if want := payloadFor(k, version(k)); !bytes.Equal(resp.Data, want) {
				t.Fatalf("%s: key %d payload mismatch", stage, k)
			}
		}
	}
	checkAll("before kill", func(uint64) byte { return 1 })

	// Kill a node mid-workload: every key it held must stay readable via
	// its replica on a surviving node.
	cl.KillNode(0)
	checkAll("node 0 down", func(uint64) byte { return 1 })
	if fo := cl.ClusterStats().ReadFailovers; fo == 0 {
		t.Error("no read failovers with a node down — replicas were never exercised")
	}

	// Update half the keys while the node is away. Its recovered card
	// must never serve these keys' old bytes.
	for k := uint64(0); k < keys; k += 2 {
		if _, err := do(server.Request{Kind: server.OpPut, Key: k, Data: payloadFor(k, 2)}); err != nil {
			t.Fatalf("put %d while node down: %v", k, err)
		}
	}
	if _, err := do(server.Request{Kind: server.OpSync}); err != nil {
		t.Fatalf("sync while node down: %v", err)
	}
	version := func(k uint64) byte {
		if k%2 == 0 {
			return 2
		}
		return 1
	}
	checkAll("updated while down", version)

	// Restart: the node remounts from flash (synced data survives, its
	// DRAM is lost) and the heal sweep re-replicates what it missed.
	if err := cl.RestartNode(0); err != nil {
		t.Fatal(err)
	}
	if cl.NodeDown(0) {
		t.Fatal("node still marked down after restart")
	}
	checkAll("after restart", version)
	if healed := cl.ClusterStats().HealedKeys; healed == 0 {
		t.Error("restart healed no keys — under-replicated entries were left degraded")
	}
	// And the cluster must still take writes everywhere, including on the
	// recovered node.
	for k := uint64(0); k < keys; k++ {
		if _, err := do(server.Request{Kind: server.OpPut, Key: k, Data: payloadFor(k, 3)}); err != nil {
			t.Fatalf("put %d after restart: %v", k, err)
		}
	}
	checkAll("rewritten after restart", func(uint64) byte { return 3 })
}

// TestDeleteWhileHolderDownIsNotResurrected pins the tombstone fix: a
// delete that lands while one of the key's holders is down must stick
// after that node comes back. Pre-fix, the delete dropped the directory
// entry outright, holdersFor fell back to ring placement, and a read
// could be routed to the recovered node — which still held the synced
// pre-delete object — serving a deleted key as a successful read.
func TestDeleteWhileHolderDownIsNotResurrected(t *testing.T) {
	cl := newTestCluster(t, 3, cluster.Config{Replicas: 1})
	sess, err := cl.OpenSession("t")
	if err != nil {
		t.Fatal(err)
	}
	at := cl.Now()
	do := func(req server.Request) (server.Response, error) {
		at = at.Add(50 * sim.Millisecond)
		req.Arrival = at
		return sess.Do(req)
	}

	const keys = 24
	for k := uint64(0); k < keys; k++ {
		if _, err := do(server.Request{Kind: server.OpPut, Key: k, Data: payloadFor(k, 1)}); err != nil {
			t.Fatalf("put %d: %v", k, err)
		}
	}
	// Sync so node 0's copies survive its power cut — the resurrection
	// bug needs the stale object to outlive the restart.
	if _, err := do(server.Request{Kind: server.OpSync}); err != nil {
		t.Fatalf("sync: %v", err)
	}

	cl.KillNode(0)
	for k := uint64(0); k < keys; k++ {
		if _, err := do(server.Request{Kind: server.OpDelete, Key: k}); err != nil {
			t.Fatalf("delete %d with node 0 down: %v", k, err)
		}
	}
	checkGone := func(stage string) {
		t.Helper()
		for k := uint64(0); k < keys; k++ {
			_, err := do(server.Request{Kind: server.OpGet, Key: k, Size: 2048})
			if err == nil {
				t.Fatalf("%s: deleted key %d served a successful read", stage, k)
			}
			if !errors.Is(err, server.ErrNotFound) {
				t.Fatalf("%s: get %d: %v, want ErrNotFound", stage, k, err)
			}
		}
	}
	checkGone("node 0 down")

	// The recovered node remounts its pre-delete flash image; the heal
	// sweep must propagate the deletes it missed before any read can
	// reach it.
	if err := cl.RestartNode(0); err != nil {
		t.Fatal(err)
	}
	checkGone("after restart")

	// The keys stay fully usable after the tombstones clear.
	for k := uint64(0); k < keys; k++ {
		if _, err := do(server.Request{Kind: server.OpPut, Key: k, Data: payloadFor(k, 2)}); err != nil {
			t.Fatalf("re-put %d: %v", k, err)
		}
		resp, err := do(server.Request{Kind: server.OpGet, Key: k, Size: 2048})
		if err != nil {
			t.Fatalf("get re-put %d: %v", k, err)
		}
		if !bytes.Equal(resp.Data, payloadFor(k, 2)) {
			t.Fatalf("re-put key %d payload mismatch", k)
		}
	}
}

// TestUnderReplicatedKeysHealWithoutRestart pins the periodic heal: a
// key whose holder set shrank because a write skipped a down node must
// be re-replicated onto a healthy third node by the router's health
// sweep — not only when the absent node eventually restarts. Pre-fix,
// the heal ran solely from RestartNode, so durability silently degraded
// for as long as the node stayed away.
func TestUnderReplicatedKeysHealWithoutRestart(t *testing.T) {
	cl := newTestCluster(t, 3, cluster.Config{Replicas: 1, RebalanceCheckEvery: 4})
	sess, err := cl.OpenSession("t")
	if err != nil {
		t.Fatal(err)
	}
	at := cl.Now()
	do := func(req server.Request) (server.Response, error) {
		at = at.Add(50 * sim.Millisecond)
		req.Arrival = at
		return sess.Do(req)
	}

	const keys = 24
	for k := uint64(0); k < keys; k++ {
		if _, err := do(server.Request{Kind: server.OpPut, Key: k, Data: payloadFor(k, 1)}); err != nil {
			t.Fatalf("put %d: %v", k, err)
		}
	}
	cl.KillNode(0)
	// Rewrites while node 0 is away pin keys it held to their single
	// surviving holder.
	for k := uint64(0); k < keys; k++ {
		if _, err := do(server.Request{Kind: server.OpPut, Key: k, Data: payloadFor(k, 2)}); err != nil {
			t.Fatalf("put %d with node 0 down: %v", k, err)
		}
	}
	// Drive the periodic sweep past the last rewrite so every degraded
	// key gets its heal pass (no restart anywhere).
	for i := 0; i < 8; i++ {
		if _, err := do(server.Request{Kind: server.OpGet, Key: uint64(i), Size: 2048}); err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
	}
	if healed := cl.ClusterStats().HealedKeys; healed == 0 {
		t.Fatal("health sweep healed no keys while the node was away — under-replication persists until a restart")
	}

	// The proof of durability: lose a second node. Every key must still
	// be readable from the copies the sweep restored.
	cl.KillNode(1)
	for k := uint64(0); k < keys; k++ {
		resp, err := do(server.Request{Kind: server.OpGet, Key: k, Size: 2048})
		if err != nil {
			t.Fatalf("get %d with nodes 0 and 1 down: %v", k, err)
		}
		if !bytes.Equal(resp.Data, payloadFor(k, 2)) {
			t.Fatalf("key %d payload mismatch after double failure", k)
		}
	}
}

// TestKillWithoutReplicasLosesAvailability pins the negative space: with
// replication off, killing a node makes its keys unavailable rather than
// silently wrong.
func TestKillWithoutReplicasLosesAvailability(t *testing.T) {
	// Replicas is clamped to nodes-1, so a 1-node "cluster" has none.
	cl := newTestCluster(t, 1, cluster.Config{})
	sess, err := cl.OpenSession("t")
	if err != nil {
		t.Fatal(err)
	}
	at := cl.Now().Add(50 * sim.Millisecond)
	if _, err := sess.Do(server.Request{Kind: server.OpPut, Key: 1, Data: []byte("x"), Arrival: at}); err != nil {
		t.Fatal(err)
	}
	cl.KillNode(0)
	_, err = sess.Do(server.Request{Kind: server.OpGet, Key: 1, Size: 1, Arrival: at.Add(sim.Second)})
	if err == nil {
		t.Fatal("read from a dead single-node cluster succeeded")
	}
}

// TestOversizedExtentNeverReachesTheDirectory: over the wire, a trunc to
// any size used to be acknowledged (growing is free), the router recorded
// it as the object's length, and the next migrate or heal issued
// Get{Size: 2^62} — makeslice: len out of range, the whole cluster down.
// The nodes now refuse an extent their card cannot hold, so the
// directory never learns one; heal after a kill/restart copies the
// object's real bytes. Driven over loopback TCP with a client deadline.
func TestOversizedExtentNeverReachesTheDirectory(t *testing.T) {
	cl := newTestCluster(t, 3, cluster.Config{Replicas: 1})
	tcp := server.NewTCP(cl)
	if err := tcp.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer tcp.Shutdown()
	c, err := server.DialOpts(tcp.Addr().String(), "t", server.ClientOptions{Timeout: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const keys = 12
	for k := uint64(0); k < keys; k++ {
		if _, err := c.Put(k, 0, payloadFor(k, 1)); err != nil {
			t.Fatalf("put %d: %v", k, err)
		}
		if err := c.Truncate(k, 1<<62); !errors.Is(err, server.ErrBadRequest) {
			t.Fatalf("trunc %d to 2^62: err=%v, want ErrBadRequest", k, err)
		}
	}
	if _, err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	// Heal every key node 0 held: rewrite them all while it is down,
	// restart it, and let the sweep re-replicate at the recorded length.
	cl.KillNode(0)
	for k := uint64(0); k < keys; k++ {
		if _, err := c.Put(k, 0, payloadFor(k, 2)); err != nil {
			t.Fatalf("put %d with node 0 down: %v", k, err)
		}
	}
	if err := cl.RestartNode(0); err != nil {
		t.Fatal(err)
	}
	if cl.ClusterStats().HealedKeys == 0 {
		t.Fatal("restart healed no keys — the copy path was never exercised")
	}
	for k := uint64(0); k < keys; k++ {
		got, err := c.Get(k, 0, 4096)
		if err != nil {
			t.Fatalf("get %d: %v", k, err)
		}
		if !bytes.Equal(got, payloadFor(k, 2)) {
			t.Fatalf("key %d: %d bytes back, want the 2048 written", k, len(got))
		}
	}
}
