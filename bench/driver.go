package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"ssmobile/internal/server"
	"ssmobile/internal/sim"
	"ssmobile/internal/workload"
)

// tenantName is the tenant of client id — the names server.RunWorkload
// uses, so the two drivers address the same directories.
func tenantName(id int) string { return fmt.Sprintf("c%d", id) }

// caller issues one tenant's requests, served at once, to the service
// under test: a server.RequestDoer in process (the sim drive's preload)
// or a server.Client over TCP (the wire drive). data is only valid until
// the next call.
type caller interface {
	call(op workload.Op, payload []byte) (n int, data []byte, err error)
}

// doerCaller adapts an in-process session. Arrival 0 means "now", so the
// service is never asked to queue.
type doerCaller struct{ sess server.RequestDoer }

func (c doerCaller) call(op workload.Op, payload []byte) (int, []byte, error) {
	resp, err := c.sess.Do(request(op, payload, 0))
	return resp.N, resp.Data, err
}

// request maps a generated op onto the service request, exactly as
// server.RunWorkload does.
func request(op workload.Op, payload []byte, arrival sim.Time) server.Request {
	req := server.Request{Key: op.Key, Arrival: arrival}
	switch op.Kind {
	case workload.Read:
		req.Kind, req.Offset, req.Size = server.OpGet, op.Offset, int64(op.Size)
	case workload.Write:
		req.Kind, req.Offset, req.Data = server.OpPut, op.Offset, payload
	case workload.Truncate:
		req.Kind, req.Size = server.OpTruncate, int64(op.Size)
	case workload.Delete:
		req.Kind = server.OpDelete
	case workload.Sync:
		req.Kind = server.OpSync
	}
	return req
}

// preloadChunk bounds one preload put, so a large object is written the
// way a client would stream it rather than as one 512 KB request.
const preloadChunk = 64 << 10

// preload writes every object of client id in full and syncs, so the
// timed window starts on a card at the workload's utilisation with
// every key present. Each put is acknowledged into the model. It reports
// the number of requests it issued.
func preload(c caller, m *model, cfg workload.Config, id int) (int, error) {
	var buf []byte
	seq := 0
	for key := 0; key < cfg.Keys; key++ {
		for off := int64(0); off < cfg.ObjectBytes; off += preloadChunk {
			n := cfg.ObjectBytes - off
			if n > preloadChunk {
				n = preloadChunk
			}
			op := workload.Op{Client: id, Seq: seq, Kind: workload.Write, Key: uint64(key), Offset: off, Size: int(n)}
			seq++
			buf = op.Payload(buf)
			got, data, err := c.call(op, buf)
			if out, merr := m.apply(op, buf, got, data, err); out != completed {
				return seq, fmt.Errorf("preload client %d: outcome %d: %v", id, out, merr)
			}
		}
	}
	op := workload.Op{Client: id, Seq: seq, Kind: workload.Sync}
	got, data, err := c.call(op, nil)
	if out, merr := m.apply(op, nil, got, data, err); out != completed {
		return seq, fmt.Errorf("preload client %d sync: outcome %d: %v", id, out, merr)
	}
	return seq + 1, nil
}

// counts is the verified outcome tally of one drive.
type counts struct {
	offered, completed, shed, notFound, failed int64
	// putBytes is the payload of acknowledged puts.
	putBytes int64
	// firstErr describes the first failed request.
	firstErr error
}

// add folds another tally into c.
func (c *counts) add(o counts) {
	c.offered += o.offered
	c.completed += o.completed
	c.shed += o.shed
	c.notFound += o.notFound
	c.failed += o.failed
	c.putBytes += o.putBytes
	if c.firstErr == nil {
		c.firstErr = o.firstErr
	}
}

func (c *counts) note(op workload.Op, out outcome, err error) {
	c.offered++
	switch out {
	case completed:
		c.completed++
		if op.Kind == workload.Write {
			c.putBytes += int64(op.Size)
		}
	case shed:
		c.shed++
	case notFound:
		c.notFound++
	default:
		c.failed++
		if c.firstErr == nil {
			c.firstErr = fmt.Errorf("client %d op %d: %w", op.Client, op.Seq, err)
		}
	}
}

// simRun is the result of driving one workload through an in-process
// service in virtual time.
type simRun struct {
	counts
	batched int64
	// elapsed is the virtual time from the drive's start to the last
	// completion.
	elapsed sim.Duration
	// lat holds Response.Latency of every completed request in issue
	// order: exact values, not histogram buckets.
	lat []sim.Duration
	// mallocs is the heap objects allocated over the whole drive (driver
	// included — it reuses its buffers, so the service dominates).
	mallocs uint64
	// chunkNs is the wall time spent inside Do, summed over each run of
	// chunk consecutive requests. The same seed issues the same requests,
	// so two drives' chunks cover the same work and can be compared one by
	// one. probeNs[k] and probeNs[k+1] are the speed probe's readings just
	// before and just after chunk k.
	chunkNs, probeNs []int64
	// digest hashes the ordered (outcome, latency) pairs: two runs served
	// the same simulated results if and only if it matches.
	digest uint64
}

// simClient is one stream's state in the arrival-order merge.
type simClient struct {
	gen    *workload.Client
	sess   server.RequestDoer
	m      *model
	op     workload.Op
	next   sim.Time
	done   bool
	payBuf []byte
}

func (c *simClient) load(base sim.Time) {
	op, ok := c.gen.Next()
	if !ok {
		c.done = true
		return
	}
	c.op = op
	c.next = base.Add(sim.Duration(op.Arrival))
}

// drive is the benchmark's own open-loop driver: it merges the clients'
// streams by issue time (earliest first, ties to the lowest client id —
// the order server.RunWorkload uses, which driver_test.go holds it to),
// checks every reply against the client's model, and times only the Do
// call, in chunks of chunk requests with a speed probe between them.
// sessions[i] and models[i] belong to client i; a model already holding
// preloaded objects carries them into the run.
func drive(svc server.Service, cfg workload.Config, chunk int, sessions []server.RequestDoer, models []*model) simRun {
	total := cfg.Clients * cfg.OpsPerClient
	chunks := (total + chunk - 1) / chunk
	run := simRun{
		lat:     make([]sim.Duration, 0, total),
		chunkNs: make([]int64, chunks),
		probeNs: make([]int64, 1, chunks+1),
	}
	h := fnv.New64a()
	var rec [9]byte

	start := svc.Now()
	cs := make([]*simClient, cfg.Clients)
	for i := range cs {
		cs[i] = &simClient{gen: workload.NewClient(cfg, i), sess: sessions[i], m: models[i]}
		cs[i].load(start)
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	pr := newProber()
	run.probeNs[0] = pr.read()
	for {
		var pick *simClient
		for _, c := range cs {
			if !c.done && (pick == nil || c.next < pick.next) {
				pick = c
			}
		}
		if pick == nil {
			break
		}
		op := pick.op
		var payload []byte
		if op.Kind == workload.Write {
			pick.payBuf = op.Payload(pick.payBuf)
			payload = pick.payBuf
		}
		req := request(op, payload, pick.next)
		t0 := time.Now()
		resp, err := pick.sess.Do(req)
		run.chunkNs[int(run.offered)/chunk] += int64(time.Since(t0))

		out, merr := pick.m.apply(op, payload, resp.N, resp.Data, err)
		run.note(op, out, merr)
		if out == completed {
			run.lat = append(run.lat, resp.Latency)
			if resp.Batched {
				run.batched++
			}
		}
		rec[0] = byte(out)
		for i := 0; i < 8; i++ {
			rec[1+i] = byte(uint64(resp.Latency) >> (8 * i))
		}
		h.Write(rec[:])
		pick.load(start)
		if int(run.offered)%chunk == 0 || int(run.offered) == total {
			run.probeNs = append(run.probeNs, pr.read())
		}
	}
	runtime.ReadMemStats(&ms)
	run.mallocs = ms.Mallocs - mallocs0
	run.elapsed = svc.Now().Sub(start)
	run.digest = h.Sum64()
	return run
}
