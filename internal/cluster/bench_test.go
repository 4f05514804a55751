// Host-cost benchmarks for the router: one logical request through
// cluster.Session.Do (routing, replication fan-out, and the health sweep
// every RebalanceCheckEvery requests amortised in), and one merged fleet
// snapshot — what a /metrics or /debug/fleet scrape holds the cluster
// mutex for.
package cluster_test

import (
	"testing"

	"ssmobile/internal/cluster"
	"ssmobile/internal/obs"
	"ssmobile/internal/server"
	"ssmobile/internal/sim"
)

// benchKeys is coprime with the put period below, so every key is both
// written and read.
const benchKeys = 63

// benchCluster assembles three observed nodes with one replica, writes
// every benchmark key once (so node sessions are open, directory entries
// exist and reads hit), and returns a closure serving request i of a
// 1-put-per-3-gets stream of 4 KB transfers, 20 virtual ms apart.
func benchCluster(b *testing.B) (*cluster.Cluster, func(i int)) {
	b.Helper()
	cl, _ := newObservedCluster(b, 3, cluster.Config{Replicas: 1})
	sess, err := cl.OpenSession("bench")
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 4096)
	at := cl.Now()
	do := func(req server.Request) {
		at = at.Add(20 * sim.Millisecond)
		req.Arrival = at
		if _, err := sess.Do(req); err != nil {
			b.Fatal(err)
		}
	}
	for k := uint64(0); k < benchKeys; k++ {
		do(server.Request{Kind: server.OpPut, Key: k, Data: data})
	}
	return cl, func(i int) {
		k := uint64(i % benchKeys)
		if i%4 == 0 {
			do(server.Request{Kind: server.OpPut, Key: k, Data: data})
		} else {
			do(server.Request{Kind: server.OpGet, Key: k, Size: 4096})
		}
	}
}

// BenchmarkClusterDo is the per-request host cost of the router over
// three nodes at K=1. Run it for at least a few hundred iterations: the
// health sweep it amortises fires once per 64 requests.
func BenchmarkClusterDo(b *testing.B) {
	_, do := benchCluster(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		do(i)
	}
}

var sinkFleet obs.Snapshot

// BenchmarkFleetSnapshot is one merged three-node fleet snapshot.
func BenchmarkFleetSnapshot(b *testing.B) {
	cl, do := benchCluster(b)
	for i := 0; i < 256; i++ {
		do(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkFleet = cl.Snapshot()
	}
	b.ReportMetric(float64(len(sinkFleet.Metrics)), "series")
}
