// The in-process workload driver: feeds seeded multi-client request
// streams (internal/workload) through a Server in deterministic global
// arrival order, entirely in virtual time. E12, the throughput
// benchmark, and the CI smoke path all run through here, so every
// consumer sees the same saturation behaviour.
package server

import (
	"errors"
	"fmt"

	"ssmobile/internal/sim"
	"ssmobile/internal/workload"
)

// RunStats summarises a driven workload run.
type RunStats struct {
	// Offered counts generated requests; Completed the ones served.
	Offered, Completed int64
	// Shed counts writes rejected by admission control; NotFound the
	// requests that named an object the workload had not created yet (or
	// had deleted or shed).
	Shed, NotFound int64
	// BatchedSyncs counts syncs absorbed by group commit.
	BatchedSyncs int64
	// Elapsed is the virtual time from first arrival to last completion.
	Elapsed sim.Duration
	// Lat holds completion−arrival for every completed request; WriteLat
	// is the Put-only view of the same.
	Lat, WriteLat *sim.Histogram
}

// OfferedRate reports generated requests per virtual second.
func (r RunStats) OfferedRate() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Offered) / r.Elapsed.Seconds()
}

// CompletedRate reports served requests per virtual second.
func (r RunStats) CompletedRate() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Completed) / r.Elapsed.Seconds()
}

// client is one stream's driver state.
type driverClient struct {
	gen  *workload.Client
	sess RequestDoer
	op   workload.Op
	// base anchors the workload's epoch: generated arrival times are
	// relative to the run's start, not the clock's (the device may have
	// lived a prior life — aging, earlier runs).
	base sim.Time
	// next is when the pending op is issued.
	next sim.Time
	done bool
	// payBuf is the client's reusable write-payload buffer; the server
	// copies Request.Data into the write buffer before Do returns, so
	// reusing it between ops is safe.
	payBuf []byte
}

func (c *driverClient) load() {
	op, ok := c.gen.Next()
	if !ok {
		c.done = true
		return
	}
	c.op = op
	c.next = c.base.Add(sim.Duration(op.Arrival))
}

// RunWorkload drives cfg's full workload through svc — the single-card
// Server or the cluster router, anything implementing Service — one
// session per client, merging the per-client streams in global arrival
// order (ties broken by client id — the output is a pure function of
// the workload seed). It returns the aggregate accounting; shed and
// not-found outcomes are expected under saturation and do not fail the
// run.
func RunWorkload(svc Service, cfg workload.Config) (RunStats, error) {
	st := RunStats{Lat: sim.NewHistogram("latency"), WriteLat: sim.NewHistogram("write-latency")}
	c0 := workload.NewClient(cfg, 0)
	cfg = c0.Config() // defaulted view, so Clients below is right

	clients := make([]*driverClient, cfg.Clients)
	start := svc.Now()
	for i := range clients {
		gen := c0
		if i > 0 {
			gen = workload.NewClient(cfg, i)
		}
		sess, err := svc.OpenSession(fmt.Sprintf("c%d", i))
		if err != nil {
			return st, err
		}
		clients[i] = &driverClient{gen: gen, sess: sess, base: start}
		clients[i].load()
	}

	for {
		// Pick the earliest pending issue time; ties go to the lowest
		// client id so the merge order is deterministic.
		var pick *driverClient
		for _, c := range clients {
			if c.done {
				continue
			}
			if pick == nil || c.next < pick.next {
				pick = c
			}
		}
		if pick == nil {
			break
		}
		op := pick.op
		req := Request{Key: op.Key, Arrival: pick.next}
		switch op.Kind {
		case workload.Read:
			req.Kind, req.Offset, req.Size = OpGet, op.Offset, int64(op.Size)
		case workload.Write:
			pick.payBuf = op.Payload(pick.payBuf)
			req.Kind, req.Offset, req.Data = OpPut, op.Offset, pick.payBuf
		case workload.Truncate:
			req.Kind, req.Size = OpTruncate, int64(op.Size)
		case workload.Delete:
			req.Kind = OpDelete
		case workload.Sync:
			req.Kind = OpSync
		}
		st.Offered++
		resp, err := pick.sess.Do(req)
		switch {
		case err == nil:
			st.Completed++
			st.Lat.ObserveDuration(resp.Latency)
			if req.Kind == OpPut {
				st.WriteLat.ObserveDuration(resp.Latency)
			}
			if resp.Batched {
				st.BatchedSyncs++
			}
		case errors.Is(err, ErrOverloaded):
			st.Shed++
		case errors.Is(err, ErrNotFound):
			st.NotFound++
		default:
			return st, fmt.Errorf("client %d op %d (%v key %d): %w",
				op.Client, op.Seq, op.Kind, op.Key, err)
		}
		pick.load()
	}
	st.Elapsed = svc.Now().Sub(start)
	return st, nil
}
