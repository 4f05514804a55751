// Package server implements a multi-tenant object-storage service over
// the solid-state stack (fs + storman + ftl): the serving layer the
// ROADMAP's north star demands, and the harness under which the paper's
// cleaning bandwidth becomes a visible saturation knee (experiment E12).
//
// Each tenant gets a session scoped to its own directory; objects are
// keyed files under it. Three serving-stack mechanisms sit between
// requests and the file system:
//
//   - sync group-commit: an explicit sync whose arrival falls within the
//     batch window of the last completed sync is absorbed by it — many
//     clients calling sync pay for one checkpoint;
//   - watermark admission control: when write-buffer occupancy crosses
//     the high watermark while the flash cleaner is behind its free-space
//     target, new writes are shed with ErrOverloaded until occupancy
//     falls below the low watermark or the cleaner catches up
//     (hysteresis, so admission does not flap);
//   - graceful degradation: shed requests are cheap — the server stays
//     responsive for reads and keeps latency bounded instead of letting
//     the queue grow without bound.
//
// The backpressure signals are the same obs gauges the dashboards read
// (storman "buffer_occupancy", ftl "cleaner_lag_blocks"), so operators
// and the admission controller never disagree about why load was shed.
//
// The storage stack is single-threaded virtual-time simulation, so the
// server serialises requests under a mutex; concurrency (TCP handlers,
// test clients) queues at that lock, and queueing delay shows up in
// virtual-time latency via the request's Arrival timestamp.
package server

import (
	"errors"
	"fmt"
	"strconv"
	"sync"

	"ssmobile/internal/engine"
	"ssmobile/internal/fs"
	"ssmobile/internal/obs"
	"ssmobile/internal/sim"
	"ssmobile/internal/storman"
)

// Typed service errors. The TCP layer maps them to wire codes and the
// client helper maps the codes back, so callers on either side of the
// socket can errors.Is against the same values.
var (
	// ErrOverloaded reports a write shed by admission control: the write
	// buffer is above the high watermark and the cleaner is behind.
	ErrOverloaded = errors.New("server: overloaded, write shed")
	// ErrDraining reports a request that arrived after shutdown began.
	ErrDraining = errors.New("server: draining, not accepting requests")
	// ErrNotFound reports an operation on a missing object.
	ErrNotFound = errors.New("server: object not found")
	// ErrBadRequest reports a malformed request.
	ErrBadRequest = errors.New("server: bad request")
)

// Backend is the storage stack the server serves from. The fields are
// the layers core.NewSolidState assembles; server deliberately does not
// import core, so core can drive server in experiments.
type Backend struct {
	FS      *fs.FS
	Storage *storman.Manager
	Engine  engine.Engine
	Clock   *sim.Clock
}

// Config parameterises the service.
type Config struct {
	// HighWatermark and LowWatermark bound the admission hysteresis on
	// write-buffer occupancy (defaults 0.9 and 0.75). Shedding starts
	// when occupancy reaches High while the cleaner is behind, and stops
	// when occupancy falls to Low or the cleaner catches up.
	HighWatermark, LowWatermark float64
	// SyncBatchWindow is the group-commit window: a sync arriving within
	// this duration of the last completed sync is absorbed by it
	// (default 50ms). Zero-window behaviour still batches syncs whose
	// arrival predates the last sync's completion.
	SyncBatchWindow sim.Duration
	// Obs receives the server's metrics; nil falls back to obs.Default().
	Obs *obs.Observer
	// OnShedEngage, if set, is called once per false→true transition of
	// the admission controller's shedding state — the flight recorder's
	// hook. It runs under the server's mutex with a request mid-flight,
	// so it must not call back into the server; reading telemetry
	// (registry, tracer) is safe.
	OnShedEngage func()
}

func (c Config) withDefaults() Config {
	if c.HighWatermark <= 0 || c.HighWatermark > 1 {
		c.HighWatermark = 0.9
	}
	if c.LowWatermark <= 0 || c.LowWatermark >= c.HighWatermark {
		c.LowWatermark = c.HighWatermark * 5 / 6
	}
	if c.SyncBatchWindow <= 0 {
		c.SyncBatchWindow = 50 * sim.Millisecond
	}
	return c
}

// OpKind is a service request type.
type OpKind uint8

// Request kinds.
const (
	OpGet OpKind = iota
	OpPut
	OpTruncate
	OpDelete
	OpSync
)

var opNames = [...]string{"get", "put", "truncate", "delete", "sync"}

// String names the kind.
func (k OpKind) String() string {
	if int(k) < len(opNames) {
		return opNames[k]
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// Request is one service request.
type Request struct {
	Kind OpKind
	// Key names the object within the session's namespace.
	Key uint64
	// Offset addresses Get/Put transfers.
	Offset int64
	// Data is the Put payload.
	Data []byte
	// Size is the Get transfer length or the Truncate target length.
	Size int64
	// Arrival is the request's virtual arrival time; zero or past
	// arrivals are served immediately, and the gap to completion is the
	// reported latency (service plus queueing delay).
	Arrival sim.Time
}

// Response reports a completed request.
type Response struct {
	// N is the byte count transferred.
	N int
	// Data is the Get payload (the server's buffer; copy to retain).
	Data []byte
	// Latency is completion minus arrival in virtual time.
	Latency sim.Duration
	// Batched reports a sync absorbed by group commit.
	Batched bool
}

// Stats summarises the server's request accounting.
type Stats struct {
	// Completed counts successfully served requests, by kind and total.
	Completed int64
	// Shed counts writes rejected by admission control.
	Shed int64
	// NotFound counts requests that named a missing object.
	NotFound int64
	// BatchedSyncs counts syncs absorbed by group commit.
	BatchedSyncs int64
	// SyncFlushes counts syncs that actually flushed.
	SyncFlushes int64
}

// Server is the object-storage service. All methods are safe for
// concurrent use; requests serialise on an internal mutex because the
// storage stack beneath is a single-threaded simulation.
type Server struct {
	mu       sync.Mutex
	cfg      Config
	b        Backend
	draining bool
	shedding bool
	lastSync sim.Time
	synced   bool // a sync has completed since startup

	// The request ledger: Stats() reads these counters back, so the
	// numbers a caller sees are the ones /metrics exports. syncFlushes
	// has no series and is a plain field.
	completed   *obs.Counter
	shed        *obs.Counter
	notFound    *obs.Counter
	batched     *obs.Counter
	syncFlushes int64
	shedGauge   *obs.Gauge
	// lat and breakdown are handle arrays resolved once at construction
	// (indexed by OpKind and by obs.BreakdownStages order respectively)
	// so the per-request hot path never touches a map.
	lat [OpSync + 1]*obs.Histogram
	// obs is the resolved observer request trace contexts install on;
	// breakdown holds one latency-attribution histogram per stage, fed
	// from each completed request's trace context (zeros included, so a
	// stage's quantiles are over ALL requests, not just the stalled
	// ones). shedEngages counts admission false→true transitions.
	obs         *obs.Observer
	breakdown   []*obs.Histogram
	shedEngages *obs.Counter
}

// New builds a server over the backend.
func New(b Backend, cfg Config) (*Server, error) {
	if b.FS == nil || b.Storage == nil || b.Engine == nil || b.Clock == nil {
		return nil, fmt.Errorf("server: backend needs FS, Storage, Engine and Clock")
	}
	cfg = cfg.withDefaults()
	o := obs.Or(cfg.Obs)
	s := &Server{
		cfg:       cfg,
		b:         b,
		completed: o.Counter("requests_total", obs.Labels{"layer": "server", "result": "ok"}),
		shed:      o.Counter("requests_total", obs.Labels{"layer": "server", "result": "shed"}),
		notFound:  o.Counter("requests_total", obs.Labels{"layer": "server", "result": "notfound"}),
		batched:   o.Counter("batched_syncs_total", obs.Labels{"layer": "server"}),
	}
	for k := OpGet; k <= OpSync; k++ {
		s.lat[k] = o.Histogram("request_latency_ns", obs.Labels{"layer": "server", "op": k.String()})
	}
	s.shedGauge = o.Gauge("shedding", obs.Labels{"layer": "server"})
	s.obs = o
	s.shedEngages = o.Counter("shed_engage_total", obs.Labels{"layer": "server"})
	s.breakdown = make([]*obs.Histogram, len(obs.BreakdownStages))
	for i, stage := range obs.BreakdownStages {
		s.breakdown[i] = o.Histogram("serve_latency_breakdown", obs.Labels{"layer": "server", "stage": stage})
	}
	return s, nil
}

// Session scopes requests to one tenant's directory.
type Session struct {
	s   *Server
	dir string
	// paths interns object-key → path strings so repeated requests for
	// the same key never re-format; nfErrs interns the matching not-found
	// errors (misses on deleted objects are steady-state traffic, and a
	// freshly formatted error per miss was a measurable hot-path
	// allocation); getBuf is the session's reusable Get payload buffer
	// (Response.Data is documented as borrowed). All are only touched
	// under the server mutex, which serialises every Do.
	paths  map[uint64]string
	nfErrs map[uint64]error
	getBuf []byte
}

// Open starts (or resumes) a tenant session, creating its directory.
func (s *Server) Open(tenant string) (*Session, error) {
	if tenant == "" || !validTenant(tenant) {
		return nil, fmt.Errorf("%w: bad tenant %q", ErrBadRequest, tenant)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, ErrDraining
	}
	dir := "/srv/" + tenant
	if err := s.b.FS.MkdirAll(dir); err != nil {
		return nil, err
	}
	return &Session{
		s: s, dir: dir,
		paths:  make(map[uint64]string),
		nfErrs: make(map[uint64]error),
	}, nil
}

// OpenSession is Open behind the Service interface the TCP front end
// and the workload driver consume.
func (s *Server) OpenSession(tenant string) (RequestDoer, error) {
	sess, err := s.Open(tenant)
	if err != nil {
		return nil, err
	}
	return sess, nil
}

// Now reports the backend clock's current virtual time.
func (s *Server) Now() sim.Time {
	return s.b.Clock.Now()
}

func validTenant(t string) bool {
	for _, r := range t {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
		default:
			return false
		}
	}
	return true
}

func (sess *Session) path(key uint64) string {
	if p, ok := sess.paths[key]; ok {
		return p
	}
	p := sess.dir + "/o" + strconv.FormatUint(key, 10)
	sess.paths[key] = p
	return p
}

// notFound returns the session's interned not-found error for the key —
// byte-identical to fmt.Errorf("%w: %s", ErrNotFound, path) and still
// unwrapping to ErrNotFound, without re-formatting on every miss.
func (sess *Session) notFound(key uint64, path string) error {
	if err, ok := sess.nfErrs[key]; ok {
		return err
	}
	err := fmt.Errorf("%w: %s", ErrNotFound, path)
	sess.nfErrs[key] = err
	return err
}

// Do serves one request: it advances virtual time to the request's
// arrival (running background daemons and idle cleaning in the gap — the
// cleaner is told when the gap ends and starts no clean past it), applies
// admission control, dispatches, and reports the virtual-time latency
// from arrival to completion.
func (sess *Session) Do(req Request) (Response, error) {
	s := sess.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return Response{}, ErrDraining
	}

	// Background work runs at the start of the idle gap: the write-back
	// daemon migrates aged blocks, and — only if there is an idle gap
	// before this request's arrival — the cleaner gets the gap to reclaim
	// space. The gap is stated, not assumed: Tick is told the arrival and
	// starts no clean at or after it, so the request waits out at most
	// the one clean already running — a clean is not pre-empted — instead
	// of a run to the free-block target. Under light load cleaning is
	// free; once arrivals outpace service there are no gaps, the cleaner
	// falls behind, its lag grows, and admission control engages — the
	// saturation knee.
	//
	// Trace attribution follows the same causal line. A request served
	// out of an idle gap did not wait for the maintenance, so the Tick
	// stays anonymous background work. A backlogged request did: the
	// daemon pass at the head of its service is time it must wait out,
	// so its trace context opens first and the flush migrations — and
	// any cleans they induce — join the request's causal tree instead
	// of disappearing into the queue component. Tracing never advances
	// the clock; with an untraced observer tc is nil and all of this is
	// free, so results are identical either way.
	now := s.b.Clock.Now()
	idle := req.Arrival > now
	var tc *obs.TraceContext
	var err error
	if idle {
		err = s.b.Storage.Tick(req.Arrival)
	} else {
		tc = s.obs.BeginRequest(s.b.Clock, "server", req.Kind.String(), queueDelay(now, req.Arrival))
		err = s.b.Storage.TickDaemon()
	}
	if err != nil {
		s.observeBreakdown(tc, tc.Finish(0, err))
		return Response{}, err
	}
	now = s.b.Clock.Now()
	arrival := req.Arrival
	if arrival > now {
		s.b.Clock.AdvanceTo(arrival)
	} else if arrival == 0 {
		arrival = now
	}

	s.updateAdmission()
	if s.shedding && (req.Kind == OpPut || req.Kind == OpTruncate) {
		// The daemon pass the shed request just waited out is real
		// request-path stall — it stays in the breakdown record even
		// though no service follows.
		s.observeBreakdown(tc, tc.FinishOutcome(0, "shed"))
		s.shed.Inc()
		return Response{}, ErrOverloaded
	}

	if tc == nil {
		// Idle-gap request: the context opens after the gap, charging
		// only cleaner overrun (the one clean still running at the
		// arrival) to queue.
		tc = s.obs.BeginRequest(s.b.Clock, "server", req.Kind.String(), queueDelay(s.b.Clock.Now(), arrival))
	}

	resp, err := s.dispatch(sess, req)
	if err != nil {
		s.observeBreakdown(tc, tc.Finish(0, err))
		if errors.Is(err, ErrNotFound) {
			s.notFound.Inc()
		}
		return Response{}, err
	}
	bd := tc.Finish(int64(resp.N), nil)
	resp.Latency = s.b.Clock.Now().Sub(arrival)
	s.completed.Inc()
	s.lat[req.Kind].ObserveDuration(resp.Latency)
	s.observeBreakdown(tc, bd)
	return resp, nil
}

// observeBreakdown folds one finished request's per-stage attribution
// into the serve_latency_breakdown histograms. Every request that opened
// a context counts — completed, failed, or shed — because the breakdown
// measures where request-path virtual time went, not just where
// successful service went.
func (s *Server) observeBreakdown(tc *obs.TraceContext, bd obs.Breakdown) {
	if tc == nil {
		return
	}
	for i, stage := range obs.BreakdownStages {
		s.breakdown[i].ObserveDuration(bd.Stage(stage))
	}
}

// queueDelay is the backlog a request inherited: service starting at
// now against an arrival timestamp (0 means "arrives now", i.e. no
// queueing — the closed-loop transports pass that).
func queueDelay(now sim.Time, arrival sim.Time) sim.Duration {
	if arrival == 0 || arrival > now {
		return 0
	}
	return now.Sub(arrival)
}

// updateAdmission moves the hysteresis state machine: shed when the
// buffer is high-water full and the cleaner is behind; re-admit when
// occupancy drops to the low watermark or the cleaner catches up.
func (s *Server) updateAdmission() {
	occ := s.b.Storage.BufferOccupancy()
	lag := s.b.Engine.CleanerLag()
	if !s.shedding {
		if occ >= s.cfg.HighWatermark && lag > 0 {
			s.shedding = true
			s.shedEngages.Inc()
			if s.cfg.OnShedEngage != nil {
				s.cfg.OnShedEngage()
			}
		}
	} else if occ <= s.cfg.LowWatermark || lag == 0 {
		s.shedding = false
	}
	if s.shedding {
		s.shedGauge.Set(1)
	} else {
		s.shedGauge.Set(0)
	}
}

func (s *Server) dispatch(sess *Session, req Request) (Response, error) {
	switch req.Kind {
	case OpGet:
		return s.doGet(sess, req)
	case OpPut:
		return s.doPut(sess, req)
	case OpTruncate:
		return s.doTruncate(sess, req)
	case OpDelete:
		return s.doDelete(sess, req)
	case OpSync:
		return s.doSync(req)
	default:
		return Response{}, fmt.Errorf("%w: unknown op %d", ErrBadRequest, int(req.Kind))
	}
}

func (s *Server) doGet(sess *Session, req Request) (Response, error) {
	if req.Size < 0 || req.Offset < 0 {
		return Response{}, fmt.Errorf("%w: negative get extent", ErrBadRequest)
	}
	p := sess.path(req.Key)
	if !s.b.FS.Exists(p) {
		return Response{}, sess.notFound(req.Key, p)
	}
	if int64(cap(sess.getBuf)) < req.Size {
		sess.getBuf = make([]byte, req.Size)
	}
	buf := sess.getBuf[:req.Size]
	n, err := s.b.FS.ReadAt(p, req.Offset, buf)
	if err != nil {
		return Response{}, err
	}
	return Response{N: n, Data: buf[:n]}, nil
}

func (s *Server) doPut(sess *Session, req Request) (Response, error) {
	if req.Offset < 0 {
		return Response{}, fmt.Errorf("%w: negative put offset", ErrBadRequest)
	}
	if limit := s.b.Engine.LogicalBytes(); req.Offset > limit-int64(len(req.Data)) {
		return Response{}, fmt.Errorf("%w: put extent ends past the card's %d bytes", ErrBadRequest, limit)
	}
	p := sess.path(req.Key)
	if !s.b.FS.Exists(p) {
		if err := s.b.FS.Create(p); err != nil {
			return Response{}, err
		}
	}
	n, err := s.b.FS.WriteAt(p, req.Offset, req.Data)
	if err != nil {
		return Response{}, err
	}
	return Response{N: n}, nil
}

func (s *Server) doTruncate(sess *Session, req Request) (Response, error) {
	if req.Size < 0 {
		return Response{}, fmt.Errorf("%w: negative truncate size", ErrBadRequest)
	}
	if limit := s.b.Engine.LogicalBytes(); req.Size > limit {
		return Response{}, fmt.Errorf("%w: truncate size past the card's %d bytes", ErrBadRequest, limit)
	}
	p := sess.path(req.Key)
	if !s.b.FS.Exists(p) {
		return Response{}, sess.notFound(req.Key, p)
	}
	if err := s.b.FS.Truncate(p, req.Size); err != nil {
		return Response{}, err
	}
	return Response{}, nil
}

func (s *Server) doDelete(sess *Session, req Request) (Response, error) {
	// Idempotent: deleting a missing object succeeds, so retried deletes
	// and delete-after-shed races never surface spurious errors.
	p := sess.path(req.Key)
	if !s.b.FS.Exists(p) {
		return Response{}, nil
	}
	if err := s.b.FS.Remove(p); err != nil {
		return Response{}, err
	}
	return Response{}, nil
}

// doSync implements group commit: a sync whose arrival is covered by the
// last completed sync — or falls within the batch window of it — rides
// that flush for free.
func (s *Server) doSync(req Request) (Response, error) {
	now := s.b.Clock.Now()
	arrival := req.Arrival
	if arrival == 0 {
		arrival = now
	}
	if s.synced && (arrival <= s.lastSync || now.Sub(s.lastSync) <= s.cfg.SyncBatchWindow) {
		s.batched.Inc()
		return Response{Batched: true}, nil
	}
	// The flush below is the group commit: everything it forces to flash
	// is charged to the group-commit-flush cause (the FS overrides its
	// own checkpoint stream to metadata inside this scope).
	restore := s.obs.PushCause(obs.CauseGroupCommitFlush)
	err := s.b.FS.Sync()
	restore()
	if err != nil {
		return Response{}, err
	}
	s.lastSync = s.b.Clock.Now()
	s.synced = true
	s.syncFlushes++
	return Response{}, nil
}

// Idle advances virtual time to t, running background daemons — the
// driver's way of modelling a quiet period after the last request. The
// daemon runs whenever a dirty block comes of age inside the quiet and
// once more at its end, and the cleaner has the quiet and no longer: it
// starts no clean at or after t, so whoever arrives at t waits out at
// most one, and a quiet long enough ends with the cleaner at its target.
func (s *Server) Idle(t sim.Time) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if err := s.b.Storage.Tick(t); err != nil {
			return err
		}
		now := s.b.Clock.Now()
		if now >= t {
			return nil
		}
		// Sleep until the daemon next has work (a block that came of
		// age while the cleaner ran is due now) or the quiet ends.
		s.b.Clock.AdvanceTo(min(t, max(s.b.Storage.NextWriteBack(), now)))
	}
}

// Drain stops admitting requests and flushes everything: in-flight
// requests (already past the draining check) complete first because
// Drain queues on the same mutex.
func (s *Server) Drain() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil
	}
	s.draining = true
	// The drain flush is sync-forced traffic too: same cause as doSync.
	defer s.obs.PushCause(obs.CauseGroupCommitFlush)()
	return s.b.FS.Sync()
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Shedding reports whether admission control is currently shedding
// writes — the /healthz overload signal.
func (s *Server) Shedding() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shedding
}

// FreeBlockMargin reports the card's free-block margin — free blocks over
// all blocks, the headroom the cleaner defends — straight from the
// engine's free count (not its Stats, which walk every block's wear to
// fill fields nobody here reads). It is the control-path read of the
// ratio the free_blocks and wear_blocks gauges export
// (flash.HealthReport.FreeBlockMargin): the cluster's health sweep calls
// it instead of snapshotting the node's registry, so whether a card is
// cordoned never depends on whether anyone is collecting its telemetry.
func (s *Server) FreeBlockMargin() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return float64(s.b.Engine.FreeBlocks()) / float64(s.b.Engine.Device().NumBlocks())
}

// Snapshot collects the server's observer's registry under the server's
// lock — the ops surface's collection (see AdminSource).
func (s *Server) Snapshot() obs.Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.obs.Exports() {
		return obs.Snapshot{}
	}
	return s.obs.Registry.Snapshot()
}

// DumpFlight takes a flight record through fr under the server's lock.
func (s *Server) DumpFlight(fr *obs.FlightRecorder, reason string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return fr.Dump(reason)
}

// Stats returns a snapshot of the request accounting.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Completed:    s.completed.Value(),
		Shed:         s.shed.Value(),
		NotFound:     s.notFound.Value(),
		BatchedSyncs: s.batched.Value(),
		SyncFlushes:  s.syncFlushes,
	}
}
