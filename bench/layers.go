package main

import (
	"ssmobile/internal/engine/pdl"
	"ssmobile/internal/obs"
	"ssmobile/internal/sim"
)

// tally is a flat set of named cumulative counts read from one stack
// through the layers' own accessors — engine.Stats(), flash.Device.Stats(),
// storman.Manager.Stats(), server.Stats(), cluster.ClusterStats(), the
// energy meter — and from obs.Registry.Snapshot() for the series that
// have no accessor. Counts are summed over a cluster's nodes. In a
// single-threaded virtual-time run every one of them is a pure function
// of the seed.
type tally map[string]float64

// sub returns t minus base, key by key: the counts of the drive alone,
// without the preload before it.
func (t tally) sub(base tally) tally {
	d := make(tally, len(t))
	for k, v := range t {
		d[k] = v - base[k]
	}
	return d
}

// sumSeries adds up every snapshot series called name whose labels
// include match; pick selects the field (Value for counters, Sum for
// histograms).
func sumSeries(snap obs.Snapshot, name string, match obs.Labels, pick func(obs.Metric) float64) float64 {
	var total float64
next:
	for _, m := range snap.Metrics {
		if m.Name != name {
			continue
		}
		for k, v := range match {
			if m.Labels[k] != v {
				continue next
			}
		}
		total += pick(m)
	}
	return total
}

func metricValue(m obs.Metric) float64 { return m.Value }
func metricSum(m obs.Metric) float64   { return m.Sum }

// readTally reads the stack's cumulative counts. It settles idle energy
// first, which charges the meter for the time since the last charge and
// touches nothing the simulation reads back.
func readTally(st *stack) tally {
	t := make(tally)
	for i, sys := range st.nodes {
		sys.SettleIdle()
		m := sys.Meter()
		t["energy_pj"] += float64(m.Total())
		t["flash.energy_pj"] += float64(m.Category("flash") + m.Category("flash-idle"))
		t["dram.energy_pj"] += float64(m.Category("dram") + m.Category("dram-idle"))

		fs := sys.Flash.Stats()
		t["flash.programs"] += float64(fs.Programs)
		t["flash.reads"] += float64(fs.Reads)
		t["flash.erases"] += float64(fs.Erases)
		t["flash.bytes_programmed"] += float64(fs.BytesProgrammed)
		t["flash.read_stall_ns"] += float64(fs.ReadStallNs)
		t["flash.metadata_bytes"] += float64(sys.Flash.CauseBytesProgrammed(obs.CauseMetadata))

		ds := sys.DRAM.Stats()
		t["dram.ops"] += float64(ds.Reads + ds.Writes)

		es := sys.Engine.Stats()
		t["engine.host_bytes"] += float64(es.HostBytesWritten)
		t["engine.host_writes"] += float64(es.HostWrites)
		t["engine.cleans"] += float64(es.Cleans)
		t["engine.idle_cleans"] += float64(es.IdleCleans)
		t["engine.copied_pages"] += float64(es.CopiedPages)
		if p, ok := sys.Engine.(*pdl.Engine); ok {
			t["engine.delta_writes"] += float64(p.DeltaWrites())
			t["engine.promotions"] += float64(p.Promotions())
		}

		ss := sys.Storage.Stats()
		t["storman.host_written"] += float64(ss.HostBytesWritten)
		t["storman.flushed"] += float64(ss.FlushedBytes)
		t["storman.absorbed"] += float64(ss.OverwriteAbsorbedBytes + ss.DeleteAbsorbedBytes)
		t["storman.cows"] += float64(ss.CopyOnWrites)
		t["storman.evictions"] += float64(ss.Evictions)
		t["storman.daemon_flushes"] += float64(ss.DaemonFlushes)
		t["storman.flash_reads"] += float64(ss.FlashReads)
		t["storman.dram_reads"] += float64(ss.DRAMReads)

		sv := st.srvs[i].Stats()
		t["server.node_ops"] += float64(sv.Completed + sv.Shed + sv.NotFound)
		t["server.batched_syncs"] += float64(sv.BatchedSyncs)
		t["server.sync_flushes"] += float64(sv.SyncFlushes)

		snap := st.obs[i].Registry.Snapshot()
		t["fs.ops"] += sumSeries(snap, "ops_total", obs.Labels{"layer": "fs"}, metricValue)
		t["fs.syncs"] += sumSeries(snap, "ops_total", obs.Labels{"layer": "fs", "op": "sync"}, metricValue)
		t["server.shed_engages"] += sumSeries(snap, "shed_engage_total", obs.Labels{"layer": "server"}, metricValue)
		for _, stage := range obs.BreakdownStages {
			t["server.vt_"+stage+"_ns"] += sumSeries(snap, "serve_latency_breakdown", obs.Labels{"stage": stage}, metricSum)
		}
	}
	if st.cl != nil {
		cs := st.cl.ClusterStats()
		t["cluster.shed_retries"] = float64(cs.ShedRetries)
		t["cluster.replica_sheds"] = float64(cs.ReplicaSheds)
		t["cluster.read_failovers"] = float64(cs.ReadFailovers)
		t["cluster.healed_keys"] = float64(cs.HealedKeys)
		t["cluster.rebalances"] = float64(cs.Rebalances)
	}
	return t
}

// gauges reads the end-of-run state that is not a running count: the
// tightest free-block margin and the worst wear across nodes, and the
// number of registered series (what a registry snapshot has to walk).
func readGauges(st *stack) tally {
	g := tally{"engine.free_block_margin": 1}
	for i, sys := range st.nodes {
		if m := sys.Engine.Stats().FreeBlockMargin; m < g["engine.free_block_margin"] {
			g["engine.free_block_margin"] = m
		}
		fs := sys.Flash.Stats()
		g["flash.max_erase_count"] = max(g["flash.max_erase_count"], float64(fs.MaxEraseCount))
		g["flash.erase_cov"] = max(g["flash.erase_cov"], fs.EraseCountCoV)
		g["obs.series_count"] += float64(len(st.obs[i].Registry.Snapshot().Metrics))
	}
	if st.routerObs != nil {
		g["obs.series_count"] += float64(len(st.routerObs.Registry.Snapshot().Metrics))
	}
	return g
}

// ratio is a/b, and 0 when there is nothing to divide by: a layer that
// did no work reports no ratio rather than a NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// mj converts picojoules to millijoules.
func mj(pj float64) float64 { return pj / float64(sim.Millijoule) }
