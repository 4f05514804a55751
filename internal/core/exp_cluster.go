package core

import (
	"fmt"

	"ssmobile/internal/cluster"
	"ssmobile/internal/obs"
	"ssmobile/internal/server"
	"ssmobile/internal/sim"
	"ssmobile/internal/workload"
)

// ClusterNodeConfig describes one node of an in-process serving cluster:
// a full solid-state stack (card, FTL, storage manager, file system)
// behind its own server, aged to a chosen point in its life.
type ClusterNodeConfig struct {
	// Name identifies the node on the placement ring.
	Name string
	// System parameterises the node's card stack; Obs is overridden with
	// the node's private observer (per-card telemetry must stay isolated
	// for the fleet view's node labels and for deterministic merging).
	System SolidStateConfig
	// AgeBytes streams this much data through the stack and deletes it
	// before serving, leaving the card full of dead pages as months of
	// use would.
	AgeBytes int64
	// TraceCapacity sizes the node observer's span ring (<=0 default).
	TraceCapacity int
}

// NewClusterNode assembles one cluster node: private observer, aged
// card stack, server, and a restart hook that recovers the node from
// flash after a power cut (synced data survives, unsynced DRAM is
// lost). The returned observer is the node's private one — merge it
// into the ambient observer after the run for deterministic telemetry.
func NewClusterNode(cfg ClusterNodeConfig) (*cluster.Node, *obs.Observer, error) {
	priv := obs.New(cfg.TraceCapacity)
	// Stamp the node's name onto every span its stack records, so a
	// merged cross-node trace still attributes each span to its card.
	priv.Tracer.SetNode(cfg.Name)
	scfg := cfg.System
	scfg.Obs = priv
	sys, err := NewSolidState(scfg)
	if err != nil {
		return nil, nil, fmt.Errorf("node %s: %w", cfg.Name, err)
	}
	if cfg.AgeBytes > 0 {
		if err := ageDevice(sys, cfg.AgeBytes); err != nil {
			return nil, nil, fmt.Errorf("aging node %s: %w", cfg.Name, err)
		}
	}
	newServer := func(s *SolidStateSystem) (*server.Server, error) {
		return server.New(server.Backend{
			FS: s.FS, Storage: s.Storage, Engine: s.Engine, Clock: s.Clock(),
		}, server.Config{Obs: priv})
	}
	srv, err := newServer(sys)
	if err != nil {
		return nil, nil, fmt.Errorf("node %s: %w", cfg.Name, err)
	}
	node := &cluster.Node{
		Name:  cfg.Name,
		Srv:   srv,
		Clock: sys.Clock(),
		Obs:   priv,
	}
	node.Restart = func() (*server.Server, error) {
		sys.DRAM.PowerFail()
		recovered, err := sys.RemountAfterPowerFailure()
		if err != nil {
			return nil, err
		}
		sys = recovered
		return newServer(sys)
	}
	return node, priv, nil
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
		nodes := make([]*cluster.Node, cell.nodes)
		privs := make([]*obs.Observer, cell.nodes)
		for j := range nodes {
			age := int64(6 << 20)
			if cell.deepAge && j == 0 {
				// One card already at its free-block margin: the health
				// sweep should cordon it and move its keys away.
				age = 15 << 19 // 7.5MB of history on an 8MB card
			}
			node, priv, err := NewClusterNode(ClusterNodeConfig{
				Name: fmt.Sprintf("n%d", j),
				System: SolidStateConfig{
					DRAMBytes:       8 << 20,
					FlashBytes:      8 << 20,
					BufferBytes:     1 << 20,
					RBoxBytes:       512 << 10,
					IdleCleanBlocks: 24,
					WriteBackDelay:  2 * sim.Second,
				},
				AgeBytes: age,
			})
			if err != nil {
				return err
			}
			nodes[j], privs[j] = node, priv
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
		st, err := server.RunWorkload(cl, workload.Config{
			Seed:          seed + int64(i),
			Clients:       32,
			OpsPerClient:  250,
			Keys:          6,
			ObjectBytes:   32 << 10,
			MinWriteBytes: 4096,
			MaxWriteBytes: 4096,
			Mix: workload.Mix{
				Read:     1 - w,
				Write:    w * 0.90,
				Truncate: w * 0.02,
				Delete:   w * 0.03,
				Sync:     w * 0.05,
			},
			Popularity:    workload.Zipf,
			ZipfSkew:      1.2,
			Arrival:       workload.OpenLoop,
			RatePerClient: 10,
		})
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
		for _, priv := range privs {
			je.Obs().Merge(priv)
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
