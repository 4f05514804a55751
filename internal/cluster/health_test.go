// The health sweep reads typed state — each node server's free-block
// margin, straight from its engine — never the node's telemetry. These
// tests pin the two halves of that contract: the typed margin is
// bit-for-bit the margin the SMART report derives from the exported
// gauges, and a cluster nobody observes rebalances exactly like one
// somebody does.
package cluster_test

import (
	"fmt"
	"math"
	"testing"

	"ssmobile/internal/cluster"
	"ssmobile/internal/core"
	"ssmobile/internal/flash"
	"ssmobile/internal/server"
	"ssmobile/internal/sim"
	"ssmobile/internal/workload"
)

// deepAge leaves an 8 MB card at a free-block margin of 0.055 (E14's
// aging card), under testMargin, so the first sweep cordons it; the 6 MB
// of history on the other cards leaves them well over it.
const (
	deepAge    = 15 << 19
	testMargin = 0.06
)

// newAgedNodes builds n nodes on the given engine, node 0 aged to its
// free-block margin and the rest lightly aged.
func newAgedNodes(t testing.TB, n int, engine string) []*cluster.Node {
	t.Helper()
	nodes := make([]*cluster.Node, n)
	for i := range nodes {
		age := int64(6 << 20)
		if i == 0 {
			age = deepAge
		}
		nodes[i] = newTestNode(t, fmt.Sprintf("n%d", i), engine, age)
	}
	return nodes
}

// kneeWorkload is the E14 saturation mix, shortened.
func kneeWorkload(seed int64) workload.Config {
	return core.E12Traffic(seed, 16, 120, 0.6)
}

// TestSweepMarginIsReportedMargin holds the margin the sweep acts on to
// the margin an operator reads: at every stage of a node's life the
// float the router compares against RebalanceMargin has the same bits as
// flash.HealthFromSnapshot(node registry).FreeBlockMargin.
func TestSweepMarginIsReportedMargin(t *testing.T) {
	for _, engine := range []string{"ftl", "pdl"} {
		t.Run(engine, func(t *testing.T) {
			nodes := newAgedNodes(t, 3, engine)
			cl, err := cluster.New(nodes, cluster.Config{RebalanceMargin: testMargin})
			if err != nil {
				t.Fatal(err)
			}
			check := func(stage string, extra ...*cluster.Node) {
				t.Helper()
				for _, n := range append(extra, cl.Nodes()...) {
					rep, err := flash.HealthFromSnapshot(n.Obs.Registry.Snapshot(), "flash")
					if err != nil {
						t.Fatalf("%s: node %s: %v", stage, n.Name, err)
					}
					typed := n.Srv.FreeBlockMargin()
					if math.Float64bits(typed) != math.Float64bits(rep.FreeBlockMargin) {
						t.Errorf("%s: node %s: sweep reads margin %v, health report says %v",
							stage, n.Name, typed, rep.FreeBlockMargin)
					}
				}
			}
			check("fresh and aged, before traffic", newTestNode(t, "fresh", engine, 0))
			if m := nodes[0].Srv.FreeBlockMargin(); m >= testMargin {
				t.Fatalf("deep-aged node starts at margin %.3f, want it under the %.2f cordon threshold", m, testMargin)
			}
			if m := nodes[1].Srv.FreeBlockMargin(); m < testMargin {
				t.Fatalf("lightly aged node starts at margin %.3f, want it over the %.2f cordon threshold", m, testMargin)
			}

			if _, err := server.RunWorkload(cl, kneeWorkload(1993)); err != nil {
				t.Fatal(err)
			}
			if cl.ClusterStats().Rebalances == 0 {
				t.Fatal("the card at its margin was never cordoned")
			}
			check("after the cordon and migration")

			// A restart swaps in a new server over a remounted engine; the
			// margin must follow it, as the re-pointed gauges do.
			cl.KillNode(1)
			check("node 1 down")
			old := cl.Nodes()[1].Srv
			if err := cl.RestartNode(1); err != nil {
				t.Fatal(err)
			}
			if cl.Nodes()[1].Srv == old {
				t.Fatal("restart did not replace the node's server")
			}
			check("after restart")
		})
	}
}

// TestUnobservedClusterRebalancesIdentically is the standing invariant
// that telemetry never changes a simulated result, applied to control:
// strip every node's observer from the router's view and the same
// workload must produce the same cordons, migrations and directory.
func TestUnobservedClusterRebalancesIdentically(t *testing.T) {
	run := func(observed bool) (cluster.Stats, string, []bool) {
		nodes := newAgedNodes(t, 3, "ftl")
		if !observed {
			for _, n := range nodes {
				n.Obs = nil
			}
		}
		cl, err := cluster.New(nodes, cluster.Config{RebalanceMargin: testMargin})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := server.RunWorkload(cl, kneeWorkload(7)); err != nil {
			t.Fatal(err)
		}
		cordoned := make([]bool, len(nodes))
		for i := range cordoned {
			cordoned[i] = cl.Cordoned(i)
		}
		return cl.ClusterStats(), cl.DumpDirectory(), cordoned
	}
	wantStats, wantDir, wantCordoned := run(true)
	gotStats, gotDir, gotCordoned := run(false)
	if wantStats.Rebalances == 0 || wantStats.MigratedKeys == 0 {
		t.Fatalf("observed run never rebalanced (%+v); the comparison is vacuous", wantStats)
	}
	if gotStats != wantStats {
		t.Errorf("cluster stats differ without node observers:\n got %+v\nwant %+v", gotStats, wantStats)
	}
	if gotDir != wantDir {
		t.Errorf("directory differs without node observers:\n got:\n%s\nwant:\n%s", gotDir, wantDir)
	}
	if fmt.Sprint(gotCordoned) != fmt.Sprint(wantCordoned) {
		t.Errorf("cordon state differs without node observers: got %v want %v", gotCordoned, wantCordoned)
	}
}

// TestHealthSweepAllocFree: a sweep that finds three healthy nodes reads
// six integers and decides nothing — it must not allocate. (It used to
// snapshot and key-sort every node's registry: ~64k allocations.)
func TestHealthSweepAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	cl, _ := newObservedCluster(t, 3, cluster.Config{Replicas: 1})
	sess, err := cl.OpenSession("t")
	if err != nil {
		t.Fatal(err)
	}
	at := cl.Now()
	for k := uint64(0); k < 16; k++ {
		at = at.Add(50 * sim.Millisecond)
		if _, err := sess.Do(server.Request{Kind: server.OpPut, Key: k, Data: payloadFor(k, 1), Arrival: at}); err != nil {
			t.Fatal(err)
		}
	}
	if a := testing.AllocsPerRun(100, func() { cl.SweepHealth(at) }); a != 0 {
		t.Fatalf("a health sweep over three healthy nodes allocated %.1f per run", a)
	}
	if st := cl.ClusterStats(); st.Rebalances != 0 {
		t.Fatalf("healthy nodes were cordoned (%+v); the sweep measured was not the steady-state one", st)
	}
}
