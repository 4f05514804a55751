package main

import (
	"fmt"

	"ssmobile/internal/cluster"
	"ssmobile/internal/core"
	"ssmobile/internal/obs"
	"ssmobile/internal/server"
)

// stack is one in-process copy of what `ssmserve serve` builds for a
// workload: the service the sim drive calls, plus handles on every
// node's card so counts can be read through the layers' own accessors
// once the drive ends.
type stack struct {
	svc server.Service
	// nodes holds each card stack (one for a single server); srvs the
	// server over each; obs each node's observer (the one its layers
	// register on — in cluster mode a private one per node).
	nodes []*core.SolidStateSystem
	srvs  []*server.Server
	obs   []*obs.Observer
	// cl is the router in cluster mode, nil otherwise; routerObs its own
	// observer.
	cl        *cluster.Cluster
	routerObs *obs.Observer
}

// newObserver builds one node's observer.
type newObserver func() *obs.Observer

// serveObserver is what ssmserve runs with — a registry plus the default
// span ring — so it is what the drives measure; the traced run
// substitutes others to price the tracer.
func serveObserver() *obs.Observer { return obs.New(0) }

// buildStack assembles the workload's service from the same constructors
// cmd/ssmserve's build uses — core.NewSolidState + server.New for one
// card, and N of those behind cluster.New for -nodes N. Cluster nodes
// are built from NewSolidState directly rather than through
// core.NewClusterNode (which is those two calls plus aging and a restart
// hook the benchmark never uses) because NewClusterNode does not hand
// back the card stack, and the energy meter has no other accessor.
func buildStack(s spec, mkObs newObserver) (*stack, error) {
	sysCfg := func(o *obs.Observer) core.SolidStateConfig {
		return core.SolidStateConfig{
			DRAMBytes:       s.dramMB << 20,
			FlashBytes:      s.flashMB << 20,
			BufferBytes:     s.bufferMB << 20,
			IdleCleanBlocks: s.idleClean,
			Engine:          s.engine,
			Obs:             o,
		}
	}
	st := &stack{}
	for i := 0; i < s.nodes; i++ {
		o := mkObs()
		name := fmt.Sprintf("n%d", i)
		if s.nodes > 1 && o.Tracer != nil {
			o.Tracer.SetNode(name)
		}
		sys, err := core.NewSolidState(sysCfg(o))
		if err != nil {
			return nil, fmt.Errorf("node %s: %w", name, err)
		}
		srv, err := server.New(server.Backend{
			FS: sys.FS, Storage: sys.Storage, Engine: sys.Engine, Clock: sys.Clock(),
		}, server.Config{Obs: o})
		if err != nil {
			return nil, fmt.Errorf("node %s: %w", name, err)
		}
		st.nodes = append(st.nodes, sys)
		st.srvs = append(st.srvs, srv)
		st.obs = append(st.obs, o)
	}
	if s.nodes == 1 {
		st.svc = st.srvs[0]
		return st, nil
	}
	nodes := make([]*cluster.Node, s.nodes)
	for i := range nodes {
		nodes[i] = &cluster.Node{
			Name:  fmt.Sprintf("n%d", i),
			Srv:   st.srvs[i],
			Clock: st.nodes[i].Clock(),
			Obs:   st.obs[i],
		}
	}
	st.routerObs = mkObs()
	el := obs.NewEventLog(0)
	st.routerObs.SetEventLog(el)
	st.obs[0].SetEventLog(el)
	cl, err := cluster.New(nodes, cluster.Config{Obs: st.routerObs})
	if err != nil {
		return nil, err
	}
	st.cl = cl
	st.svc = cl
	return st, nil
}
