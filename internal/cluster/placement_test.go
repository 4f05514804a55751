package cluster

import "testing"

// testCluster builds a bare router shell — ring and health flags only —
// for exercising placement without node stacks.
func testCluster(names []string) *Cluster {
	cfg := Config{}.withDefaults()
	return &Cluster{
		cfg:      cfg,
		nodes:    make([]*Node, len(names)),
		down:     make([]bool, len(names)),
		cordoned: make([]bool, len(names)),
		ring:     buildRing(names, virtualPoints),
	}
}

// Placement must be a pure function of (tenant, key, node names): two
// rings built from the same names agree point for point.
func TestRingIsDeterministic(t *testing.T) {
	names := []string{"n0", "n1", "n2", "n3"}
	a, b := buildRing(names, 16), buildRing(names, 16)
	if len(a) != len(b) || len(a) != len(names)*16 {
		t.Fatalf("ring sizes: %d vs %d, want %d", len(a), len(b), len(names)*16)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ring diverges at point %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// ringPlace returns primary + replicas on distinct nodes, and every node
// gets a reasonable share of primaries (virtual points spread the load).
func TestRingPlaceDistinctAndSpread(t *testing.T) {
	c := testCluster([]string{"n0", "n1", "n2", "n3"})
	primaries := make([]int, 4)
	for key := uint64(0); key < 400; key++ {
		h := c.ringPlace("tenant", key)
		if len(h) != 2 {
			t.Fatalf("key %d: %d holders, want 2", key, len(h))
		}
		if h[0] == h[1] {
			t.Fatalf("key %d: duplicate holder %d", key, h[0])
		}
		primaries[h[0]]++
	}
	for n, got := range primaries {
		if got == 0 {
			t.Errorf("node %d owns no primaries — ring badly skewed: %v", n, primaries)
		}
	}
}

// A down or cordoned node must not receive new placements while any
// healthy node can take them; with nothing healthy left the walk relaxes
// rather than leaving the key unplaceable.
func TestRingPlaceAvoidsUnhealthy(t *testing.T) {
	c := testCluster([]string{"n0", "n1", "n2"})
	c.down[0] = true
	c.cordoned[1] = true
	for key := uint64(0); key < 50; key++ {
		h := c.ringPlace("t", key)
		if h[0] != 2 {
			t.Fatalf("key %d: primary %d, want the only healthy node 2", key, h[0])
		}
		// The replica slot has no healthy candidate left; it should relax
		// to the cordoned node before the down one.
		if len(h) > 1 && h[1] != 1 {
			t.Fatalf("key %d: replica %d, want cordoned node 1 over down node 0", key, h[1])
		}
	}
}

// ringReplacement skips holders and unhealthy nodes.
func TestRingReplacement(t *testing.T) {
	c := testCluster([]string{"n0", "n1", "n2", "n3"})
	for key := uint64(0); key < 50; key++ {
		holders := c.ringPlace("t", key)
		repl := c.ringReplacement("t", key, holders)
		if repl < 0 {
			t.Fatalf("key %d: no replacement in a healthy 4-node ring", key)
		}
		for _, h := range holders {
			if repl == h {
				t.Fatalf("key %d: replacement %d is already a holder", key, repl)
			}
		}
	}
	// With every non-holder unhealthy there is nowhere to go.
	c.down[2], c.cordoned[3] = true, true
	for key := uint64(0); key < 50; key++ {
		holders := []int{0, 1}
		if repl := c.ringReplacement("t", key, holders); repl >= 0 {
			t.Fatalf("key %d: replacement %d from an all-unhealthy pool", key, repl)
		}
	}
}
