// Package cluster is the router/placement tier over N in-process
// ssmserve nodes — the scale-out layer the E12 saturation study calls
// for: one simulated card saturates at ~32 open-loop clients, so serving
// beyond that means sharding tenants' keys across many cards, each
// behind its own internal/server instance with its own cleaner, write
// buffer and admission controller.
//
// Three mechanisms make the tier a cluster rather than a load balancer:
//
//   - placement: a consistent-hash ring (virtual points per node) with a
//     directory of per-key overrides — see placement.go;
//   - replication: every write lands on the key's primary plus K
//     replicas with sync-commit semantics matching the single node's
//     group commit (a replicated write's latency is the slowest
//     holder's, and sync fans out to every node so a tenant's data is
//     stable everywhere it lives). A holder that misses a write leaves
//     the key's holder set and is remembered as stale until its old
//     copy is purged; a delete that misses a holder leaves a tombstone
//     behind, so the key can never be resurrected from the copy that
//     node still holds. The periodic health sweep re-replicates
//     under-copied keys and propagates pending deletes as soon as the
//     cluster can, not only after a node restart;
//   - rebalancing: the router watches each node's free-block margin —
//     read as typed state from the node's server
//     (server.Server.FreeBlockMargin, the engine's own free/total block
//     counts), the same ratio the SMART-style health report at
//     /debug/health derives from the exported gauges — and, when a card
//     ages toward its margin, cordons the node and migrates its keys to
//     healthier cards, deleting the moved objects so the aging card's
//     cleaner gets its space back. Control never goes through the
//     metrics registry: telemetry is for operators, and a node nobody
//     observes must rebalance exactly like one somebody does.
//
// Admission-control sheds stay node-local by design: a write shed by one
// node's watermark controller is retried against the same node with
// bounded virtual-time backoff (the idle gap is exactly what its cleaner
// needs), and only surfaces to the caller if the node stays overloaded —
// other nodes never inherit the overload, which E14 measures.
//
// The Cluster implements server.Service, so the TCP front end and the
// deterministic N-way-merge workload driver (server.RunWorkload) run
// against a cluster exactly as they run against one node. Everything is
// virtual-time deterministic: requests are serialised under the cluster
// mutex, placement is a pure function of (tenant, key, node names), and
// migration sweeps iterate in sorted order, so a seeded workload yields
// byte-identical results at any host parallelism.
package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"ssmobile/internal/obs"
	"ssmobile/internal/server"
	"ssmobile/internal/sim"
)

// ErrUnavailable reports a request whose every holder is down — the
// cluster equivalent of a dead disk. Callers should treat it as
// retriable once nodes return.
var ErrUnavailable = errors.New("cluster: no live holder for key")

// Node is one ssmserve node: a server over its own card stack. The
// caller (core's experiments, cmd/ssmserve) assembles the stack and
// hands the cluster the pieces the router needs.
type Node struct {
	// Name identifies the node on the hash ring; it must be unique and
	// stable (placement is a pure function of the name set).
	Name string
	// Srv is the node's server. Replaced by RestartNode.
	Srv *server.Server
	// Clock is the node's virtual clock (each node owns its stack's
	// single-threaded simulation time).
	Clock *sim.Clock
	// Obs is the node's private observer; its registry carries the
	// per-card telemetry Snapshot merges under the node's label. It
	// is telemetry only — routing, health sweeps and rebalancing never
	// read it — and may be nil.
	Obs *obs.Observer
	// Restart, if set, recovers the node after a kill — remounting the
	// card as after a power failure (synced data survives, unsynced DRAM
	// is lost) and returning a fresh server over the recovered stack.
	Restart func() (*server.Server, error)
}

// Config parameterises the router.
type Config struct {
	// RebalanceMargin is the free-block margin below which a node is
	// cordoned and its keys migrated away (default 0.04); a cordoned node
	// is re-admitted for new placements at uncordonFactor times it.
	RebalanceMargin float64
	// Obs is the router's own observer — distinct from the per-node
	// observers, which carry each card's telemetry. The router registers
	// its fan-out metrics (per-holder replica latency, the straggler
	// gauge, fleet health gauges) here, records cluster-level request
	// spans into its tracer, and appends control-plane events to its
	// attached EventLog. Nil disables router telemetry entirely.
	Obs *obs.Observer
}

const (
	// replicas is the number of extra copies beyond the primary, capped
	// at nodes-1 (none on a single-node cluster; see copies).
	replicas = 1
	// virtualPoints is the number of ring points each node projects.
	virtualPoints = 16
	// uncordonFactor sets the margin a cordoned node must recover to, as
	// a multiple of RebalanceMargin — hysteresis, so placement does not
	// flap.
	uncordonFactor = 2
	// shedRetries bounds in-place retries of a write shed by a node's
	// admission control; shedBackoff is the virtual-time backoff before
	// the first retry, doubling per attempt. The backoff is the point:
	// the idle gap is cleaner time.
	shedRetries = 2
	shedBackoff = 50 * sim.Millisecond
	// rebalanceCheckEvery is the number of cluster requests between
	// health sweeps.
	rebalanceCheckEvery = 64
)

func (c Config) withDefaults() Config {
	if c.RebalanceMargin <= 0 {
		c.RebalanceMargin = 0.04
	}
	return c
}

// Stats is the router's own accounting — logical requests, not the
// per-node fan-out (node servers keep their own server.Stats).
type Stats struct {
	// Completed counts logical requests served; Shed the writes that
	// stayed overloaded after retries; NotFound and BatchedSyncs as on a
	// single node (a cluster sync is batched only if every node batched).
	Completed, Shed, NotFound, BatchedSyncs int64
	// ShedRetries counts in-place retries after a node-local shed;
	// ReplicaSheds counts replica writes dropped because the replica
	// stayed overloaded (the primary copy is intact — the periodic
	// health sweep's heal pass re-replicates the key back to the target
	// copy count); SkippedReplicaWrites counts writes skipped because a
	// holder was down or still held a stale, unpurged copy.
	ShedRetries, ReplicaSheds, SkippedReplicaWrites int64
	// Rebalances counts cordon events; MigratedKeys the keys moved off
	// cordoned nodes; HealedKeys the keys re-replicated back to the
	// target copy count after a restart; ReadFailovers the reads served
	// by a replica because the primary was down or missing the object.
	Rebalances, MigratedKeys, HealedKeys, ReadFailovers int64
}

// entry is one written key's directory record. Beyond the live holder
// set it remembers which nodes still hold obsolete bytes for the key:
// a holder that misses a put/truncate (down, or overloaded past the
// retry budget) leaves holders and joins stale, and a delete that
// misses a holder keeps the entry as a tombstone (deleted=true, no
// holders) until every stale copy is purged — without the tombstone,
// the entry would vanish, holdersFor would fall back to ring placement,
// and a read could resurrect the deleted key from the copy the absent
// node still holds.
type entry struct {
	holders []int // primary first
	size    int64 // current object length upper bound, for migration reads
	deleted bool  // tombstone: deleted, but a stale copy survives somewhere
	stale   []int // sorted nodes holding obsolete bytes, pending purge
}

// Cluster routes requests across nodes. All methods are safe for
// concurrent use; requests serialise on the cluster mutex (each node's
// stack is a single-threaded simulation, and deterministic routing needs
// a total order anyway).
type Cluster struct {
	mu       sync.Mutex
	cfg      Config
	nodes    []*Node
	down     []bool
	cordoned []bool
	gen      []uint64 // bumped on restart; invalidates cached node sessions
	ring     []ringPoint
	dir      map[string]map[uint64]*entry
	sessions map[string]*Session
	opsSince int
	degraded bool // some entry is under-copied or has stale copies to purge

	// The router's ledger: Stats() and ClusterStats() read these counters
	// back, so the numbers a caller sees are the ones a scrape exports
	// (registered on obs in initObservability; standalone without one).
	completed, shed, notFound, batchedSyncs             *obs.Counter
	shedRetries, replicaSheds, skippedReplicaWrites     *obs.Counter
	rebalances, migratedKeys, healedKeys, readFailovers *obs.Counter

	// Router observability (see observe.go). obs is cfg.Obs (may be nil —
	// every probe is nil-safe); clock is the router's own virtual clock,
	// advanced to max(arrival, previous position) per request so cluster
	// spans and events carry coherent times without ever touching a node
	// clock. repLat holds the per-rank holder-latency histograms (rank 0
	// is the primary), straggler the slowest-minus-median gauge, and the
	// fleet gauges summarise directory degradation and per-node state.
	obs                              *obs.Observer
	clock                            *sim.Clock
	repLat                           []*obs.Histogram
	straggler                        *obs.Gauge
	underRepl, tombKeys, staleCopies *obs.Gauge
	nodeUp, nodeCordoned             []*obs.Gauge
	hl                               []holderLat // scratch: last request's fan-out
	latScratch                       []holderLat // scratch: straggler-gap sort
	applied                          []int       // scratch: holders the current write reached
}

// New builds a router over the given nodes.
func New(nodes []*Node, cfg Config) (*Cluster, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: need at least one node")
	}
	names := make([]string, len(nodes))
	for i, n := range nodes {
		if n == nil || n.Srv == nil || n.Clock == nil {
			return nil, fmt.Errorf("cluster: node %d needs Srv and Clock", i)
		}
		if n.Name == "" {
			n.Name = fmt.Sprintf("n%d", i)
		}
		names[i] = n.Name
		for j := 0; j < i; j++ {
			if names[j] == n.Name {
				return nil, fmt.Errorf("cluster: duplicate node name %q", n.Name)
			}
		}
	}
	cfg = cfg.withDefaults()
	c := &Cluster{
		cfg:      cfg,
		nodes:    nodes,
		down:     make([]bool, len(nodes)),
		cordoned: make([]bool, len(nodes)),
		gen:      make([]uint64, len(nodes)),
		ring:     buildRing(names, virtualPoints),
		dir:      make(map[string]map[uint64]*entry),
		sessions: make(map[string]*Session),
	}
	c.initObservability()
	return c, nil
}

// Session routes one tenant's requests. Obtain via OpenSession; safe
// for concurrent use (requests serialise on the cluster mutex).
type Session struct {
	c      *Cluster
	tenant string
	sess   []server.RequestDoer
	sgen   []uint64
}

// OpenSession starts (or resumes) a tenant session — the server.Service
// entry point. Node sessions open lazily, only on nodes the tenant's
// requests actually reach.
func (c *Cluster) OpenSession(tenant string) (server.RequestDoer, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.sessions[tenant]; ok {
		return s, nil
	}
	s := &Session{
		c:      c,
		tenant: tenant,
		sess:   make([]server.RequestDoer, len(c.nodes)),
		sgen:   make([]uint64, len(c.nodes)),
	}
	c.sessions[tenant] = s
	return s, nil
}

// nodeSession returns the tenant's session on node i, opening (or
// reopening after a restart) as needed. Caller holds c.mu.
func (s *Session) nodeSession(i int) (server.RequestDoer, error) {
	c := s.c
	if s.sess[i] == nil || s.sgen[i] != c.gen[i] {
		d, err := c.nodes[i].Srv.OpenSession(s.tenant)
		if err != nil {
			return nil, err
		}
		s.sess[i] = d
		s.sgen[i] = c.gen[i]
	}
	return s.sess[i], nil
}

// Do routes one request: sync fans out to every live node, reads go to
// the first live holder (failing over across replicas), and writes land
// on every live holder with node-local shed retry.
//
// Around the dispatch the router runs its own observability: a
// cluster-layer request span on the router clock, one child span per
// holder the fan-out touched (carrying the holder's node name and its
// individual latency — the decomposition of "acknowledged at the
// slowest holder"), and the per-rank replica-latency histograms. None
// of it reads or advances a node clock, so results are byte-identical
// with telemetry on or off.
func (s *Session) Do(req server.Request) (server.Response, error) {
	c := s.c
	c.mu.Lock()
	defer c.mu.Unlock()
	c.opsSince++
	if c.opsSince >= rebalanceCheckEvery {
		c.opsSince = 0
		c.checkHealth(req.Arrival)
	}
	start, tc := c.beginRequest(req)
	c.hl = c.hl[:0]
	var resp server.Response
	var err error
	switch req.Kind {
	case server.OpSync:
		resp, err = s.doSync(req)
	case server.OpGet:
		resp, err = s.doGet(req)
	default:
		resp, err = s.doWrite(req)
	}
	c.finishRequest(tc, req, start, resp, err)
	return resp, err
}

// doSync fans the sync to every live node in index order — a tenant's
// keys may live anywhere, and the sync-commit contract is "stable
// everywhere it lives". The cluster sync is batched only if every node
// absorbed it into an earlier group commit; its latency is the slowest
// node's (the commit is acknowledged when the last replica is stable).
func (s *Session) doSync(req server.Request) (server.Response, error) {
	c := s.c
	var resp server.Response
	live := 0
	allBatched := true
	for i := range c.nodes {
		if c.down[i] {
			continue
		}
		sess, err := s.nodeSession(i)
		if err != nil {
			return server.Response{}, err
		}
		r, err := sess.Do(req)
		if err != nil {
			return server.Response{}, err
		}
		live++
		c.hl = append(c.hl, holderLat{node: i, lat: r.Latency})
		if !r.Batched {
			allBatched = false
		}
		if r.Latency > resp.Latency {
			resp.Latency = r.Latency
		}
	}
	if live == 0 {
		return server.Response{}, ErrUnavailable
	}
	resp.Batched = allBatched
	if allBatched {
		c.batchedSyncs.Inc()
	}
	c.completed.Inc()
	return resp, nil
}

// doGet reads from the key's first live holder, failing over to the
// next replica when the preferred one is down or (after a lossy
// restart) no longer has the object. A tombstoned key is not found by
// definition — the delete was acknowledged; the stale copy an absent
// holder still has must never be served.
func (s *Session) doGet(req server.Request) (server.Response, error) {
	c := s.c
	if e := c.lookup(s.tenant, req.Key); e != nil && e.deleted {
		c.notFound.Inc()
		return server.Response{}, server.ErrNotFound
	}
	holders := c.holdersFor(s.tenant, req.Key)
	var lastErr error
	tried := 0
	for rank, h := range holders {
		if c.down[h] {
			continue
		}
		sess, err := s.nodeSession(h)
		if err != nil {
			return server.Response{}, err
		}
		r, err := sess.Do(req)
		if err == nil {
			if rank > 0 {
				c.readFailovers.Inc()
			}
			c.hl = append(c.hl, holderLat{node: h, lat: r.Latency, failover: rank > 0})
			c.completed.Inc()
			return r, nil
		}
		tried++
		lastErr = err
		if !errors.Is(err, server.ErrNotFound) {
			return server.Response{}, err
		}
	}
	if tried == 0 {
		return server.Response{}, ErrUnavailable
	}
	c.notFound.Inc()
	return server.Response{}, lastErr
}

// doWrite applies a put/truncate/delete to every live holder, primary
// first. A primary shed (after bounded retry) sheds the whole request;
// a replica shed is dropped and counted — the shed stays node-local
// instead of cascading through the cluster. The response carries the
// slowest holder's latency: sync-commit semantics, a write is
// acknowledged at the pace of its last replica.
//
// A holder that misses the write — down, still overloaded after the
// retry budget, or still carrying an unpurged stale copy — leaves the
// key's holder set: its copy is stale, and a stale replica must never
// serve a later read. Misses are remembered on the entry's stale list
// (for a delete, as a tombstone) so the obsolete copy is purged by the
// periodic heal pass, or here, before a new write lands on the key.
func (s *Session) doWrite(req server.Request) (server.Response, error) {
	c := s.c
	e := c.lookup(s.tenant, req.Key)
	if e != nil && len(e.stale) > 0 {
		// Purge obsolete copies on live nodes before writing: a node
		// that missed a delete or write must never take a fresh partial
		// write on top of its old bytes.
		s.purgeStale(e, req.Key, req.Arrival)
		if e.deleted && len(e.stale) == 0 {
			// The delete has now reached every copy; the tombstone is done.
			delete(c.dir[s.tenant], req.Key)
			c.logEvent(req.Arrival, obs.EventTombstoneResolve, "",
				"pending delete reached every copy", 1)
			e = nil
		}
	}
	holders := c.holdersFor(s.tenant, req.Key)
	var resp server.Response
	applied := c.applied[:0]
	var missed []int
	// A miss only matters if the node actually holds the key's bytes:
	// a past holder or an already-stale copy. A ring-placed node that
	// never took the key has nothing to go stale.
	wasHolder := func(h int) bool {
		return e != nil && (holdsNode(e.holders, h) || holdsNode(e.stale, h))
	}
	for _, h := range holders {
		if c.down[h] || (e != nil && holdsNode(e.stale, h)) {
			c.skippedReplicaWrites.Inc()
			if wasHolder(h) {
				missed = append(missed, h)
			}
			continue
		}
		r, err := s.doWithRetry(h, req)
		switch {
		case err == nil:
			if len(applied) == 0 {
				resp = r
			} else if r.Latency > resp.Latency {
				resp.Latency = r.Latency
			}
			applied = append(applied, h)
			c.hl = append(c.hl, holderLat{node: h, lat: r.Latency})
		case errors.Is(err, server.ErrOverloaded):
			if len(applied) == 0 {
				// The effective primary stayed overloaded through the
				// retry budget: the write sheds, and no replica was
				// touched — admission control stays node-local.
				c.shed.Inc()
				return server.Response{}, err
			}
			c.replicaSheds.Inc()
			c.logEvent(req.Arrival, obs.EventReplicaShed, c.nodes[h].Name,
				"replica overloaded past the retry budget; primary copy intact", 1)
			if wasHolder(h) {
				missed = append(missed, h)
			}
		case errors.Is(err, server.ErrNotFound):
			if len(applied) == 0 {
				c.notFound.Inc()
				return server.Response{}, err
			}
			// A replica missing the object (post-restart, pre-heal)
			// cannot apply a truncate/delete of it; dropping it from the
			// holder set below is exactly right.
		default:
			return server.Response{}, err
		}
	}
	if len(applied) == 0 {
		return server.Response{}, ErrUnavailable
	}
	c.applied = applied
	c.noteWrite(s.tenant, applied, missed, req)
	c.completed.Inc()
	return resp, nil
}

// purgeStale deletes the key's obsolete copies from the live nodes on
// the entry's stale list; nodes that are down, or whose delete fails,
// stay listed for a later pass. Caller holds c.mu.
func (s *Session) purgeStale(e *entry, key uint64, arrival sim.Time) {
	c := s.c
	kept := e.stale[:0]
	for _, h := range e.stale {
		if c.down[h] {
			kept = append(kept, h)
			continue
		}
		sess, err := s.nodeSession(h)
		if err != nil {
			kept = append(kept, h)
			continue
		}
		_, err = sess.Do(server.Request{Kind: server.OpDelete, Key: key, Arrival: arrival})
		if err != nil && !errors.Is(err, server.ErrNotFound) {
			kept = append(kept, h)
		}
	}
	e.stale = kept
}

// doWithRetry serves req on node h, retrying a shed write with bounded
// exponential virtual-time backoff: each retry arrives later, and the
// idle gap is exactly the time the node's cleaner needs to free blocks
// and its buffer needs to drain. Caller holds c.mu.
func (s *Session) doWithRetry(h int, req server.Request) (server.Response, error) {
	c := s.c
	sess, err := s.nodeSession(h)
	if err != nil {
		return server.Response{}, err
	}
	r, err := sess.Do(req)
	if req.Kind != server.OpPut && req.Kind != server.OpTruncate {
		return r, err
	}
	backoff := shedBackoff
	for attempt := 0; attempt < shedRetries && errors.Is(err, server.ErrOverloaded); attempt++ {
		c.shedRetries.Inc()
		base := req.Arrival
		if base == 0 || base < c.nodes[h].Clock.Now() {
			base = c.nodes[h].Clock.Now()
		}
		req.Arrival = base.Add(backoff)
		backoff *= 2
		r, err = sess.Do(req)
	}
	return r, err
}

// lookup returns the key's directory entry, nil if the key has none.
// Caller holds c.mu.
func (c *Cluster) lookup(tenant string, key uint64) *entry {
	if m := c.dir[tenant]; m != nil {
		return m[key]
	}
	return nil
}

// holdersFor resolves the key's holder set: the directory entry when the
// key has live copies, the ring default otherwise (including for a
// tombstoned key — a fresh write to it places anew). Caller holds c.mu.
func (c *Cluster) holdersFor(tenant string, key uint64) []int {
	if e := c.lookup(tenant, key); e != nil && !e.deleted {
		return e.holders
	}
	return c.ringPlace(tenant, key)
}

// noteWrite records a write in the directory: puts and truncates pin
// the holder set to the nodes that actually applied the write and track
// the object's length (migration needs to know how much to copy); a
// node that held the key but missed the write joins the stale list. A
// delete drops the entry only when no stale copy survives it; otherwise
// the entry stays as a tombstone until the heal pass (or a later write
// to the key) purges the remaining copies — dropping it early would let
// ring placement route a read back to the stale copy. Caller holds
// c.mu.
func (c *Cluster) noteWrite(tenant string, applied, missed []int, req server.Request) {
	m := c.dir[tenant]
	if req.Kind == server.OpDelete {
		if m == nil {
			return
		}
		e := m[req.Key]
		if e == nil {
			return
		}
		stale := e.stale
		for _, h := range missed {
			stale = addStale(stale, h)
		}
		if len(stale) == 0 {
			delete(m, req.Key)
			return
		}
		if !e.deleted {
			c.logEvent(req.Arrival, obs.EventTombstoneCreate, c.nodeNames(stale),
				"delete missed a holder; key pinned until every copy is purged", 1)
		}
		e.deleted = true
		e.holders = e.holders[:0]
		e.size = 0
		e.stale = stale
		c.degraded = true
		return
	}
	if m == nil {
		m = make(map[uint64]*entry)
		c.dir[tenant] = m
	}
	e := m[req.Key]
	if e == nil {
		e = &entry{}
		m[req.Key] = e
	}
	e.deleted = false
	e.holders = append(e.holders[:0], applied...)
	for _, h := range missed {
		e.stale = addStale(e.stale, h)
	}
	switch req.Kind {
	case server.OpPut:
		if end := req.Offset + int64(len(req.Data)); end > e.size {
			e.size = end
		}
	case server.OpTruncate:
		e.size = req.Size
	}
	if len(e.holders) < c.copies() || len(e.stale) > 0 {
		c.degraded = true
	}
}

// addStale inserts node n into the sorted stale list if absent.
func addStale(stale []int, n int) []int {
	i := sort.SearchInts(stale, n)
	if i < len(stale) && stale[i] == n {
		return stale
	}
	stale = append(stale, 0)
	copy(stale[i+1:], stale[i:])
	stale[i] = n
	return stale
}

// removeNode drops node n from the list, preserving order.
func removeNode(list []int, n int) []int {
	for i, h := range list {
		if h == n {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

// checkHealth sweeps every live node's free-block margin (typed state
// from the node's server, not its telemetry) and cordons nodes whose
// margin has sunk below the rebalance threshold, migrating their keys to
// healthier cards. A sweep that finds every node healthy allocates
// nothing. Recovered nodes (margin back
// above the uncordon threshold, e.g. after migration freed their space)
// rejoin placement. When any directory entry is degraded — under the
// target copy count, or carrying stale copies to purge — the sweep also
// runs the heal pass, so durability lost to a skipped or shed replica
// write is restored on the next sweep instead of waiting for some node
// to restart. Caller holds c.mu.
func (c *Cluster) checkHealth(arrival sim.Time) {
	uncordon := uncordonFactor * c.cfg.RebalanceMargin
	for i := range c.nodes {
		if c.down[i] {
			continue
		}
		margin := c.nodes[i].Srv.FreeBlockMargin()
		switch {
		case !c.cordoned[i] && margin < c.cfg.RebalanceMargin:
			c.cordoned[i] = true
			c.rebalances.Inc()
			c.logEvent(arrival, obs.EventCordon, c.nodes[i].Name,
				fmt.Sprintf("free-block margin %.3f < %.3f", margin, c.cfg.RebalanceMargin), 0)
			moved := c.migrateOff(i, arrival)
			if moved > 0 {
				c.logEvent(arrival, obs.EventMigrate, c.nodes[i].Name,
					"keys moved off the cordoned card to healthier nodes", moved)
			}
			// Capture the span tail around the rebalance: the requests that
			// aged the card into its margin are the interesting ones.
			c.dump("cordon")
		case c.cordoned[i] && margin >= uncordon:
			c.cordoned[i] = false
			c.logEvent(arrival, obs.EventUncordon, c.nodes[i].Name,
				fmt.Sprintf("free-block margin %.3f >= %.3f", margin, uncordon), 0)
		}
	}
	if c.degraded {
		healed, remaining := c.heal()
		c.degraded = remaining > 0
		if healed > 0 {
			c.logEvent(arrival, obs.EventHeal, "",
				"re-replicated under-copied keys to the target copy count", healed)
		}
	}
	c.refreshFleetGauges()
}

// migrateOff moves every key held by node i to a healthy replacement:
// copy the object from a live holder to the new node, delete it from
// the cordoned one (its cleaner gets the space back), and rewrite the
// directory entry — promoting the first surviving replica when the
// primary moves. Sweeps run in sorted (tenant, key) order so the
// migration traffic is deterministic. It reports how many keys moved.
// Caller holds c.mu.
func (c *Cluster) migrateOff(i int, arrival sim.Time) (moved int) {
	tenants := make([]string, 0, len(c.dir))
	for tn := range c.dir {
		tenants = append(tenants, tn)
	}
	sort.Strings(tenants)
	for _, tn := range tenants {
		sess := c.sessions[tn]
		if sess == nil {
			continue
		}
		m := c.dir[tn]
		keys := make([]uint64, 0, len(m))
		for k, e := range m {
			if holdsNode(e.holders, i) {
				keys = append(keys, k)
			}
		}
		sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
		for _, k := range keys {
			e := m[k]
			repl := c.ringReplacement(tn, k, e.holders)
			if repl < 0 {
				continue // nowhere healthy to go; keep the degraded placement
			}
			if !c.copyObject(sess, e, k, repl, arrival) {
				continue
			}
			// Drop the object from the cordoned node so its cleaner can
			// reclaim the space — the point of the migration.
			if !c.down[i] {
				if src, err := sess.nodeSession(i); err == nil {
					src.Do(server.Request{Kind: server.OpDelete, Key: k, Arrival: arrival})
				}
			}
			holders := make([]int, 0, len(e.holders))
			for _, h := range e.holders {
				if h != i {
					holders = append(holders, h)
				}
			}
			e.holders = append(holders, repl)
			e.stale = removeNode(e.stale, repl) // the copy just landed is fresh
			moved++
		}
	}
	c.migratedKeys.Add(int64(moved))
	return moved
}

// copyObject replicates key k onto node repl, reading from the first
// live holder (including a cordoned one — cordoned is not down). The
// target is deleted before the copy lands: if repl holds stale bytes
// from a write it missed, a put of the current object over them could
// leave an obsolete tail past the copy's extent — the replica must be
// exact, not a patch. It reports whether the new copy is in place.
// Caller holds c.mu.
func (c *Cluster) copyObject(sess *Session, e *entry, k uint64, repl int, arrival sim.Time) bool {
	var data []byte
	if e.size > 0 {
		got := false
		for _, h := range e.holders {
			if c.down[h] {
				continue
			}
			src, err := sess.nodeSession(h)
			if err != nil {
				continue
			}
			r, err := src.Do(server.Request{Kind: server.OpGet, Key: k, Offset: 0, Size: e.size, Arrival: arrival})
			if err != nil {
				continue
			}
			data = r.Data
			got = true
			break
		}
		if !got {
			return false
		}
	}
	dst, err := sess.nodeSession(repl)
	if err != nil {
		return false
	}
	if _, err := dst.Do(server.Request{Kind: server.OpDelete, Key: k, Arrival: arrival}); err != nil && !errors.Is(err, server.ErrNotFound) {
		return false
	}
	_, err = dst.Do(server.Request{Kind: server.OpPut, Key: k, Offset: 0, Data: data, Arrival: arrival})
	return err == nil
}

func holdsNode(holders []int, n int) bool {
	for _, h := range holders {
		if h == n {
			return true
		}
	}
	return false
}

// KillNode marks node i down: requests route around it, reads fail over
// to replicas, and writes skip it. The node's unsynced state is
// considered lost (RestartNode remounts from flash, the power-failure
// contract).
func (c *Cluster) KillNode(i int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.down[i] = true
	c.logEvent(c.maxClock(), obs.EventKill, c.nodes[i].Name,
		"operator kill; unsynced state lost", 0)
	c.refreshFleetGauges()
	c.dump("kill")
}

// RestartNode recovers a killed node through its Restart hook (remount
// from flash — synced data survives, unsynced DRAM is lost) and returns
// it to service. Cached tenant sessions on the node are invalidated, and
// a heal sweep purges stale copies the node accumulated while away —
// deletes it missed foremost, so a tombstoned key can finally drop —
// and re-replicates keys whose holder set shrank in its absence, so the
// cluster returns to its target copy count.
func (c *Cluster) RestartNode(i int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.down[i] {
		return fmt.Errorf("cluster: node %d is not down", i)
	}
	n := c.nodes[i]
	if n.Restart == nil {
		return fmt.Errorf("cluster: node %d has no restart hook", i)
	}
	srv, err := n.Restart()
	if err != nil {
		return fmt.Errorf("cluster: restarting node %d: %w", i, err)
	}
	n.Srv = srv
	c.down[i] = false
	c.gen[i]++
	c.logEvent(c.maxClock(), obs.EventRestart, n.Name,
		"remounted from flash; synced data recovered", 0)
	healed, remaining := c.heal()
	c.degraded = remaining > 0
	if healed > 0 {
		c.logEvent(c.maxClock(), obs.EventHeal, n.Name,
			"post-restart heal restored the target copy count", healed)
	}
	c.refreshFleetGauges()
	c.dump("restart")
	return nil
}

// heal walks every degraded directory entry in sorted (tenant, key)
// order: it purges stale copies from nodes that are live again (for a
// tombstone, that is the pending delete finally reaching the copy that
// missed it — once the last one is purged the entry drops), then
// re-replicates entries holding fewer than the target copy count onto
// the first healthy non-holder clockwise of the key. It reports how
// many copies it restored and how many entries remain degraded (stale
// copy on a still-down node, or no healthy replacement available) so the
// periodic sweep knows to come back. Caller holds c.mu.
func (c *Cluster) heal() (healed, remaining int) {
	now := c.maxClock()
	want := c.copies()
	tenants := make([]string, 0, len(c.dir))
	for tn := range c.dir {
		tenants = append(tenants, tn)
	}
	sort.Strings(tenants)
	for _, tn := range tenants {
		sess := c.sessions[tn]
		m := c.dir[tn]
		keys := make([]uint64, 0, len(m))
		for k, e := range m {
			if len(e.stale) > 0 || (!e.deleted && len(e.holders) < want) {
				keys = append(keys, k)
			}
		}
		sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
		for _, k := range keys {
			e := m[k]
			if sess == nil {
				remaining++
				continue
			}
			if len(e.stale) > 0 {
				sess.purgeStale(e, k, now)
			}
			if e.deleted {
				if len(e.stale) == 0 {
					delete(m, k)
					c.logEvent(now, obs.EventTombstoneResolve, "",
						"pending delete reached every copy", 1)
				} else {
					remaining++
				}
				continue
			}
			for len(e.holders) < want {
				repl := c.ringReplacement(tn, k, e.holders)
				if repl < 0 {
					break // no healthy non-holder left
				}
				if !c.copyObject(sess, e, k, repl, now) {
					break
				}
				e.holders = append(e.holders, repl)
				e.stale = removeNode(e.stale, repl) // fresh copy, no longer stale
				healed++
			}
			if len(e.holders) < want || len(e.stale) > 0 {
				remaining++
			}
		}
	}
	c.healedKeys.Add(int64(healed))
	return healed, remaining
}

// maxClock reports the furthest node clock. Caller holds c.mu.
func (c *Cluster) maxClock() sim.Time {
	var t sim.Time
	for _, n := range c.nodes {
		if now := n.Clock.Now(); now > t {
			t = now
		}
	}
	return t
}

// Stats reports the aggregate request accounting behind the Service
// interface (logical requests, not per-node fan-out).
func (c *Cluster) Stats() server.Stats {
	st := c.ClusterStats()
	return server.Stats{
		Completed:    st.Completed,
		Shed:         st.Shed,
		NotFound:     st.NotFound,
		BatchedSyncs: st.BatchedSyncs,
	}
}

// ClusterStats reports the router's full accounting, including the
// rebalance and replication counters — a view over the ledger counters.
func (c *Cluster) ClusterStats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Completed:            c.completed.Value(),
		Shed:                 c.shed.Value(),
		NotFound:             c.notFound.Value(),
		BatchedSyncs:         c.batchedSyncs.Value(),
		ShedRetries:          c.shedRetries.Value(),
		ReplicaSheds:         c.replicaSheds.Value(),
		SkippedReplicaWrites: c.skippedReplicaWrites.Value(),
		Rebalances:           c.rebalances.Value(),
		MigratedKeys:         c.migratedKeys.Value(),
		HealedKeys:           c.healedKeys.Value(),
		ReadFailovers:        c.readFailovers.Value(),
	}
}

// Draining reports whether any live node has begun its drain; Shedding
// whether any live node's admission control is shedding writes — one
// overloaded card makes the cluster's /healthz read overloaded.
func (c *Cluster) Draining() bool { return c.anyLive((*server.Server).Draining) }

// Shedding: see Draining.
func (c *Cluster) Shedding() bool { return c.anyLive((*server.Server).Shedding) }

func (c *Cluster) anyLive(is func(*server.Server) bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, n := range c.nodes {
		if !c.down[i] && is(n.Srv) {
			return true
		}
	}
	return false
}

// Drain drains every live node in index order: each stops admitting and
// flushes to stable storage. The first error is reported after every
// node has been attempted.
func (c *Cluster) Drain() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var first error
	for i, n := range c.nodes {
		if c.down[i] {
			continue
		}
		if err := n.Srv.Drain(); err != nil && first == nil {
			first = fmt.Errorf("cluster: draining node %d: %w", i, err)
		}
	}
	return first
}

// Now reports the cluster's virtual time: the furthest node clock (the
// cluster has finished an instant only when every node has).
func (c *Cluster) Now() sim.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.maxClock()
}
