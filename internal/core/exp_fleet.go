package core

import (
	"fmt"

	"ssmobile/internal/cluster"
	"ssmobile/internal/obs"
	"ssmobile/internal/server"
	"ssmobile/internal/sim"
)

// E16Fleet is the fleet-observability study: the E14 cluster instrumented
// end to end. A 4-node cluster starts with one card deep-aged (so the
// router's first health sweep cordons it and migrates its keys), serves
// one phase of the saturation workload, loses a node to an operator kill,
// serves a degraded phase, recovers the node (remount from flash — the
// power-failure contract), and serves a final healed phase.
//
// The point is not new mechanism but visibility into the old one: every
// control-plane transition lands in the cluster event journal with a
// virtual timestamp and cause; every replicated write decomposes into
// per-holder latencies (rank 0 the effective primary, the write
// acknowledged at the slowest holder); and the fleet health rollup
// aggregates the per-card SMART reports into one lifetime-at-rate figure.
// All of it is the same code path behind /debug/events, /debug/fleet and
// `ssmtrace events|fleet`, and all of it is virtual-time deterministic —
// the four tables are a pure function of the seed at any -parallel level.
func E16Fleet(env *Env, seed int64) ([]*Table, error) {
	const w = 0.6
	const nNodes = 4
	const killNode = 3

	phases := &Table{
		ID: "E16",
		Title: "fleet observability: cordon, kill and restart under the saturation " +
			"workload, phase by phase",
		Headers: []string{"phase", "offered op/s", "served op/s", "p50", "p99",
			"shed", "failovers", "healed", "events"},
	}
	timeline := &Table{
		ID:      "E16b",
		Title:   "cluster event journal: control-plane transitions on the virtual clock",
		Headers: []string{"time", "event", "node", "keys", "cause"},
	}
	holders := &Table{
		ID:      "E16c",
		Title:   "per-holder write latency: the decomposition of \"acknowledged at the slowest holder\"",
		Headers: []string{"rank", "role", "writes", "p50", "p99"},
	}
	fleet := &Table{
		ID:      "E16d",
		Title:   "fleet health rollup: per-card SMART reports aggregated across the ring",
		Headers: []string{"node", "state", "ring share", "life used", "free margin", "lifetime"},
	}

	err := env.ForEach(1, func(_ int, je *Env) error {
		// The journal and the fleet snapshot both hang off an observer —
		// the same attachment point /debug/events uses in ssmserve. An
		// uninstrumented run (no observer) still needs one, so the
		// experiment carries its own; the tables are identical either way.
		o := je.Obs()
		if o == nil {
			o = obs.New(0)
		}
		el := obs.NewEventLog(0)
		o.SetEventLog(el)

		// One card at its free-block margin from the start: the router's
		// first sweep cordons it — the journal's opening entries.
		nodes, err := newE12Nodes(nNodes, true)
		if err != nil {
			return err
		}
		cl, err := cluster.New(nodes, cluster.Config{RebalanceMargin: 0.05, Obs: o})
		if err != nil {
			return err
		}

		var prev cluster.Stats
		var prevEvents int64
		runPhase := func(name string, phaseSeed int64) error {
			st, err := server.RunWorkload(cl, E12Traffic(phaseSeed, 32, 100, w))
			if err != nil {
				return fmt.Errorf("phase %s: %w", name, err)
			}
			cst := cl.ClusterStats()
			phases.AddRow(
				name,
				fmt.Sprintf("%.1f", st.OfferedRate()),
				fmt.Sprintf("%.1f", st.CompletedRate()),
				fmtDur(sim.Duration(st.Lat.Quantile(0.50))),
				fmtDur(sim.Duration(st.Lat.Quantile(0.99))),
				fmt.Sprintf("%d", st.Shed),
				fmt.Sprintf("%d", cst.ReadFailovers-prev.ReadFailovers),
				fmt.Sprintf("%d", cst.HealedKeys-prev.HealedKeys),
				fmt.Sprintf("%d", el.Total()-prevEvents),
			)
			prev, prevEvents = cst, el.Total()
			return nil
		}

		if err := runPhase("baseline", seed); err != nil {
			return err
		}
		cl.KillNode(killNode)
		if err := runPhase("node down", seed+1); err != nil {
			return err
		}
		if err := cl.RestartNode(killNode); err != nil {
			return err
		}
		if err := runPhase("recovered", seed+2); err != nil {
			return err
		}

		// The timeline table shows the structural transitions one by one;
		// the chattier per-key events (heals, replica sheds, tombstone
		// lifecycle) are summarised below so the table stays readable. The
		// full stream is what /debug/events serves and `ssmtrace events`
		// replays.
		structural := map[string]bool{
			obs.EventCordon: true, obs.EventUncordon: true, obs.EventMigrate: true,
			obs.EventKill: true, obs.EventRestart: true,
		}
		counts := map[string]int{}
		keys := map[string]int{}
		for _, ev := range el.Events() {
			counts[ev.Type]++
			keys[ev.Type] += ev.Keys
			if !structural[ev.Type] {
				continue
			}
			k := ""
			if ev.Keys != 0 {
				k = fmt.Sprintf("%d", ev.Keys)
			}
			timeline.AddRow(ev.Time.String(), ev.Type, ev.Node, k, ev.Cause)
		}
		timeline.Notes = append(timeline.Notes,
			fmt.Sprintf("%d events total; per-key churn summarised: %d heal sweeps re-replicated %d keys,",
				el.Total(), counts[obs.EventHeal], keys[obs.EventHeal]),
			fmt.Sprintf("%d replica sheds, %d tombstones created / %d resolved; the full stream is the",
				counts[obs.EventReplicaShed], counts[obs.EventTombstoneCreate], counts[obs.EventTombstoneResolve]),
			"/debug/events JSONL, replayable offline with `ssmtrace events`")

		for rank, h := range cl.ReplicaLatency() {
			role := "replica"
			if rank == 0 {
				role = "primary"
			}
			holders.AddRow(
				fmt.Sprintf("%d", rank), role,
				fmt.Sprintf("%d", h.Count),
				fmtDur(sim.Duration(h.P50)),
				fmtDur(sim.Duration(h.P99)),
			)
		}
		holders.Notes = append(holders.Notes,
			"a replicated write is acknowledged at its slowest holder; rank orders the holders a",
			"write actually landed on (rank 0 the effective primary), so the p99 gap between ranks",
			fmt.Sprintf("is the replication tax; last write's straggler gap (slowest − median): %s",
				fmtDur(sim.Duration(cl.StragglerGapNS()))))

		rep, err := cluster.FleetFromSnapshot(cl.Snapshot())
		if err != nil {
			return err
		}
		for _, n := range rep.Nodes {
			state := "up"
			if !n.Up {
				state = "down"
			}
			if n.Cordoned {
				state += "+cordoned"
			}
			life, margin, lifetime := "-", "-", "-"
			if n.Health != nil {
				life = fmt.Sprintf("%.3f%%", n.Health.LifeUsedPct)
				if n.Health.FreeBlockMargin >= 0 {
					margin = fmt.Sprintf("%.1f%%", 100*n.Health.FreeBlockMargin)
				}
				lifetime = n.Health.Lifetime
			}
			fleet.AddRow(n.Name, state, fmt.Sprintf("%.1f%%", n.RingSharePct),
				life, margin, lifetime)
		}
		fleet.Notes = append(fleet.Notes,
			fmt.Sprintf("fleet lifetime at current burn rate: %s (%.4f erases/s against a remaining budget of %d cycles);",
				rep.Lifetime, rep.EraseRatePerSec, rep.RemainingEraseBudget),
			fmt.Sprintf("life used spread across cards %.3f%%..%.3f%%, wear spread %.2f mean-erases — the imbalance",
				rep.MinLifeUsedPct, rep.MaxLifeUsedPct, rep.WearSpreadAcrossCards),
			fmt.Sprintf("cluster-level migration could still level; directory: %d under-replicated, %d tombstones, %d stale copies;",
				rep.UnderReplicatedKeys, rep.TombstoneKeys, rep.StaleCopies),
			"the same rollup is served live at /debug/fleet and rendered offline by `ssmtrace fleet`")

		for _, node := range nodes {
			o.MergeLabeled(node.Obs, obs.Labels{"node": node.Name})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	phases.Notes = append(phases.Notes,
		"the E14 cluster (4 nodes, one card deep-aged) driven through three phases: baseline with the",
		"first health sweep cordoning the aged card; a phase with one node operator-killed (reads fail",
		"over, writes skip the dead holder and heal later); and a recovered phase after the node",
		"remounts from flash — failovers and heals are the per-phase deltas, events the journal growth")
	return []*Table{phases, timeline, holders, fleet}, nil
}
