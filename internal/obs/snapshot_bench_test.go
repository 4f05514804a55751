// Benchmarks for the snapshot side of the registry — what a /metrics,
// /debug/health or /debug/fleet scrape pays while it holds a serving
// lock. They run over a real cluster node's registry (a full card stack
// behind a server, assembled through core, which is why this file is in
// the external test package) rather than synthetic series, so the label
// shapes and the histogram share are the ones production snapshots see.
package obs_test

import (
	"testing"

	"ssmobile/internal/core"
	"ssmobile/internal/obs"
	"ssmobile/internal/server"
)

// nodeRegistry builds one cluster node and serves a short burst through
// it, so its histograms hold samples, then returns the node's private
// registry.
func nodeRegistry(tb testing.TB) *obs.Registry {
	tb.Helper()
	priv := obs.New(0)
	node, err := core.NewServedCard(core.ServedCardConfig{Name: "n0", System: core.E12Card(priv)})
	if err != nil {
		tb.Fatal(err)
	}
	sess, err := node.Srv.Open("bench")
	if err != nil {
		tb.Fatal(err)
	}
	data := make([]byte, 4096)
	for i := 0; i < 256; i++ {
		req := server.Request{Kind: server.OpPut, Key: uint64(i % 16), Data: data}
		if i >= 16 && i%4 == 3 {
			req = server.Request{Kind: server.OpGet, Key: uint64(i % 16), Size: 4096}
		}
		if _, err := sess.Do(req); err != nil {
			tb.Fatal(err)
		}
	}
	return priv.Registry
}

var (
	sinkSnapshot obs.Snapshot
	sinkMetric   obs.Metric
)

// BenchmarkRegistrySnapshot is one node registry's Snapshot: collect
// every series and put them in key order.
func BenchmarkRegistrySnapshot(b *testing.B) {
	r := nodeRegistry(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkSnapshot = r.Snapshot()
	}
	b.ReportMetric(float64(len(sinkSnapshot.Metrics)), "series")
}

// BenchmarkSnapshotFind is one lookup by name and labels in a node
// snapshot, cycling through every series it holds (all hits — the miss
// path does the same search).
func BenchmarkSnapshotFind(b *testing.B) {
	snap := nodeRegistry(b).Snapshot()
	n := len(snap.Metrics)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := snap.Metrics[i%n]
		found, ok := snap.Find(m.Name, m.Labels)
		if !ok {
			b.Fatalf("series %s not found in its own snapshot", m.Key())
		}
		sinkMetric = found
	}
}
