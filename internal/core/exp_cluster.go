package core

import (
	"fmt"

	"ssmobile/internal/cluster"
	"ssmobile/internal/obs"
	"ssmobile/internal/server"
	"ssmobile/internal/sim"
)

// newE12Nodes builds the nodes of the cluster experiments: n named E12
// cards, each on a private observer with 6MB of history. deepAgeFirst
// starts node 0 at its free-block margin instead (7.5MB of history on the
// 8MB card), so the router's first health sweep cordons it and moves its
// keys to healthier cards.
func newE12Nodes(n int, deepAgeFirst bool) ([]*cluster.Node, error) {
	nodes := make([]*cluster.Node, n)
	for j := range nodes {
		age := int64(6 << 20)
		if deepAgeFirst && j == 0 {
			age = 15 << 19
		}
		card, err := NewServedCard(ServedCardConfig{
			Name:     fmt.Sprintf("n%d", j),
			System:   E12Card(obs.New(0)),
			AgeBytes: age,
		})
		if err != nil {
			return nil, err
		}
		nodes[j] = card.Node
	}
	return nodes, nil
}

// E14Cluster is the scale-out study: the E12 saturation workload —
// open-loop clients at the single-card knee — served by a router
// (internal/cluster) over 1..N ssmserve nodes, each with its own aged
// card, cleaner, and admission controller. Placement is a consistent
// hash of (tenant, key); every write lands on a primary plus one
// replica with sync-commit semantics (a write acknowledges at its
// slowest holder); a shed write is retried against the same node with
// virtual-time backoff, so one node's overload never cascades. The last
// row plants one node near its free-block margin: the router's health
// sweep (each node server's typed FreeBlockMargin — the same ratio the
// E13 SMART report shows) cordons it mid-run and migrates its keys to
// healthier cards.
//
// Everything is in-process virtual time — the table is a pure function
// of the seed, byte-identical across runs and -parallel levels.
func E14Cluster(env *Env, seed int64) (*Table, error) {
	cells := []struct {
		nodes   int
		deepAge bool // age node 0 to the free-block margin → rebalance
	}{
		{1, false}, {2, false}, {4, false}, {3, true},
	}
	const w = 0.6

	t := &Table{
		ID: "E14",
		Title: "cluster scale-out at the saturation knee: consistent-hash placement, " +
			"replicated writes, health-driven rebalancing",
		Headers: []string{"nodes", "offered op/s", "served op/s", "p50", "p99",
			"shed", "max node shed", "failovers", "rebal", "migrated"},
	}

	n := len(cells)
	rows := make([][]string, n)
	err := env.ForEach(n, func(i int, je *Env) error {
		cell := cells[i]
		nodes, err := newE12Nodes(cell.nodes, cell.deepAge)
		if err != nil {
			return err
		}
		// The margin sits just below the deep-aged card's starting
		// free-block margin, so the last row's cordon fires on the
		// router's first health sweep; baseline cards cordon only
		// transiently, when a write burst outruns their cleaner.
		cl, err := cluster.New(nodes, cluster.Config{RebalanceMargin: 0.05, Obs: je.Obs()})
		if err != nil {
			return err
		}
		// The E12 32-client knee: the offered load one card sheds under.
		st, err := server.RunWorkload(cl, E12Traffic(seed+int64(i), 32, 250, w))
		if err != nil {
			return fmt.Errorf("%d nodes: %w", cell.nodes, err)
		}
		cst := cl.ClusterStats()
		// Shed locality: how concentrated the node-local sheds were. On a
		// healthy cluster the hash spreads load and no node dominates;
		// a hot or aging card shows up as one node absorbing the sheds.
		var totalNodeShed, maxNodeShed int64
		for _, node := range nodes {
			s := node.Srv.Stats().Shed
			totalNodeShed += s
			if s > maxNodeShed {
				maxNodeShed = s
			}
		}
		maxShare := "-"
		if totalNodeShed > 0 {
			maxShare = fmt.Sprintf("%.0f%%", 100*float64(maxNodeShed)/float64(totalNodeShed))
		}
		rows[i] = []string{
			fmt.Sprintf("%d", cell.nodes),
			fmt.Sprintf("%.1f", st.OfferedRate()),
			fmt.Sprintf("%.1f", st.CompletedRate()),
			fmtDur(sim.Duration(st.Lat.Quantile(0.50))),
			fmtDur(sim.Duration(st.Lat.Quantile(0.99))),
			fmt.Sprintf("%d", st.Shed),
			maxShare,
			fmt.Sprintf("%d", cst.ReadFailovers),
			fmt.Sprintf("%d", cst.Rebalances),
			fmt.Sprintf("%d", cst.MigratedKeys),
		}
		for _, node := range nodes {
			je.Obs().Merge(node.Obs)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.addRows(rows)
	t.Notes = append(t.Notes,
		"the E12 saturation workload (32 open-loop clients, 60% writes) routed over N nodes, each",
		"its own aged card with private cleaner and admission control; writes land on primary+replica",
		"with the slowest holder's latency (sync-commit), sheds retry node-locally with backoff;",
		"rebal counts cordon events: any card a burst pushes to its free-block margin cordons until",
		"its cleaner recovers, but migration needs a healthy non-holder (so 1- and 2-node clusters,",
		"where every node already holds every key, migrate nothing); the 3-node row starts one card",
		"at its margin — the router's SMART-report sweep cordons it immediately and moves its keys;",
		"scale-out moves the knee: the cleaning bandwidth the paper worries about is per-card,",
		"so sharding tenants across cards buys back the tail that one saturated cleaner costs")
	return t, nil
}
