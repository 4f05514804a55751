// Live ops surface for the object-storage service: a second, plain-HTTP
// listener exposing the process's metrics, health, profiles and flight
// recorder. It is deliberately separate from the data-plane TCP port so
// an operator can still scrape a wedged server, and so the data protocol
// stays nc(1)-simple. One surface serves one card or a cluster of them
// (AdminSource); every endpoint answers for every card behind it.
//
// Endpoints:
//
//	/metrics             Prometheus text exposition of the source's
//	                     Snapshot (a cluster's cards under node labels)
//	/healthz             JSON {status, state, draining, shedding}; the
//	                     admission-control state is serving, shedding or
//	                     draining — of any card — and draining degrades to
//	                     HTTP 503
//	/debug/health        SMART-style device-health report (flash.HealthReport
//	                     JSON): endurance budget, wear spread, windowed burn
//	                     rate and the lifetime left at it; ?node= selects a
//	                     cluster's card by name (unknown: 404), ?device= a
//	                     flash device other than the default "flash"
//	/debug/fleet         cluster-wide health rollup (cluster.FleetReport
//	                     JSON); 404 on a single card
//	/debug/events        the cluster event journal as JSONL (cordon,
//	                     migrate, heal, kill, restart, ...), replayable
//	                     offline with `ssmtrace events`; 404 when no
//	                     journal is attached
//	/debug/pprof/...     net/http/pprof profiles (real time, not virtual)
//	/debug/flightrecord  trigger an on-demand flight-recorder dump
package server

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"

	"ssmobile/internal/flash"
	"ssmobile/internal/obs"
)

// AdminSource is what the ops surface speaks for: one card (*Server) or
// a cluster of them (cluster.Cluster). Every answer covers every card
// behind the source, and every collection runs under the source's own
// lock — read-through gauges evaluate live simulation state (buffer
// occupancy, free-block counts, the rate-sampler rings) that request
// handlers mutate under it, so an unlocked scrape races with every
// session. Handlers format and write to the socket after the call
// returns, so a slow scraper never stalls the data plane.
type AdminSource interface {
	// Snapshot collects every series the source exports; a source over
	// several cards stamps each card's series with a node label.
	Snapshot() obs.Snapshot
	// DumpFlight takes a flight record through fr under the same lock —
	// as the shed-engage dump, taken from inside a request, always has.
	DumpFlight(fr *obs.FlightRecorder, reason string) (string, error)
	// Draining and Shedding report whether any card is.
	Draining() bool
	Shedding() bool
}

// fleetSource is the optional interface of a source over several cards:
// its cluster-wide health rollup (cluster.FleetReport; typed as any to
// keep the server package free of a cluster import) serves /debug/fleet.
type fleetSource interface {
	FleetReport() (any, error)
}

// Admin is the ops-surface HTTP server.
type Admin struct {
	src AdminSource
	o   *obs.Observer

	mu       sync.Mutex
	ln       net.Listener
	hs       *http.Server
	draining bool
}

// NewAdmin builds the ops surface over src. The observer carries what is
// attached rather than collected: the flight recorder
// (o.SetFlightRecorder) and the event journal (o.SetEventLog).
func NewAdmin(src AdminSource, o *obs.Observer) *Admin {
	return &Admin{src: src, o: obs.Or(o)}
}

// SetDraining flips the health status reported by /healthz; the TCP
// transport calls this when Shutdown begins so load balancers can stop
// sending traffic before the data port closes.
func (a *Admin) SetDraining(v bool) {
	a.mu.Lock()
	a.draining = v
	a.mu.Unlock()
}

// Handler returns the admin mux; useful for tests that want the surface
// without a real listener.
func (a *Admin) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", a.handleMetrics)
	mux.HandleFunc("/healthz", a.handleHealthz)
	mux.HandleFunc("/debug/health", a.handleHealth)
	mux.HandleFunc("/debug/fleet", a.handleFleet)
	mux.HandleFunc("/debug/events", a.handleEvents)
	mux.HandleFunc("/debug/flightrecord", a.handleFlightRecord)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Listen binds addr (e.g. "127.0.0.1:9090") and serves in the
// background. Use Addr for the bound address and Shutdown to stop.
func (a *Admin) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	a.mu.Lock()
	a.ln = ln
	a.hs = &http.Server{Handler: a.Handler()}
	hs := a.hs
	a.mu.Unlock()
	go hs.Serve(ln)
	return nil
}

// Addr reports the bound listener address; nil before Listen.
func (a *Admin) Addr() net.Addr {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.ln == nil {
		return nil
	}
	return a.ln.Addr()
}

// Shutdown closes the admin listener. In-flight scrapes finish; it does
// not wait for long-running pprof profiles.
func (a *Admin) Shutdown() error {
	a.mu.Lock()
	hs := a.hs
	a.hs = nil
	a.mu.Unlock()
	if hs == nil {
		return nil
	}
	return hs.Close()
}

func (a *Admin) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := a.src.Snapshot().WritePrometheus(w); err != nil {
		// Headers are gone; all we can do is note it inline.
		fmt.Fprintf(w, "# write error: %v\n", err)
	}
}

func (a *Admin) handleHealthz(w http.ResponseWriter, r *http.Request) {
	a.mu.Lock()
	draining := a.draining
	a.mu.Unlock()
	// The transport flips the admin flag on shutdown; a direct Drain on
	// the source (no transport involved) must read the same way.
	draining = draining || a.src.Draining()
	status := "ok"
	state := "serving"
	code := http.StatusOK
	shedding := a.src.Shedding()
	switch {
	case draining:
		status = "draining"
		state = "draining"
		code = http.StatusServiceUnavailable
	case shedding:
		// Shedding is the server protecting itself, not an outage: report
		// degraded but stay 200 so orchestrators don't restart it.
		status = "overloaded"
		state = "shedding"
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]any{
		"status":   status,
		"state":    state,
		"draining": draining,
		"shedding": shedding,
	})
}

// handleHealth serves the SMART-style device-health report: the health
// computation is a pure function of a metrics snapshot (see
// flash.HealthFromSnapshot), so this endpoint and an offline
// `ssmtrace health` over a -metrics dump can never disagree. ?node=
// narrows the snapshot to one card's series (its node label stripped),
// which is how a cluster's cards are told apart.
func (a *Admin) handleHealth(w http.ResponseWriter, r *http.Request) {
	device := r.URL.Query().Get("device")
	if device == "" {
		device = "flash"
	}
	snap := a.src.Snapshot()
	if node := r.URL.Query().Get("node"); node != "" {
		snap = snap.FilterLabel("node", node)
		if len(snap.Metrics) == 0 {
			http.Error(w, fmt.Sprintf("no node %q", node), http.StatusNotFound)
			return
		}
	}
	rep, err := flash.HealthFromSnapshot(snap, device)
	if err != nil {
		http.Error(w, err.Error()+"; a cluster reports one card at a time (?node=<name>)", http.StatusNotFound)
		return
	}
	writeJSON(w, rep)
}

// handleFleet serves the cluster-wide health rollup when the source has
// one. Like /debug/health it is backed by a pure function of a metrics
// snapshot (cluster.FleetFromSnapshot), so this endpoint and an offline
// `ssmtrace fleet` over a -metrics dump can never disagree.
func (a *Admin) handleFleet(w http.ResponseWriter, r *http.Request) {
	fleet, ok := a.src.(fleetSource)
	if !ok {
		http.Error(w, "no fleet behind this surface (single card)", http.StatusNotFound)
		return
	}
	rep, err := fleet.FleetReport()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, rep)
}

// writeJSON answers with v as indented JSON.
func writeJSON(w http.ResponseWriter, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(data, '\n'))
}

// handleEvents streams the attached event journal as JSONL — one header
// line with totals, then one event per line, oldest first.
func (a *Admin) handleEvents(w http.ResponseWriter, r *http.Request) {
	l := a.o.EventLog()
	if l == nil {
		http.Error(w, "no event journal attached", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	if err := l.WriteJSONL(w); err != nil {
		fmt.Fprintf(w, "# write error: %v\n", err)
	}
}

func (a *Admin) handleFlightRecord(w http.ResponseWriter, r *http.Request) {
	fr := a.o.FlightRecorder()
	if fr == nil {
		http.Error(w, "no flight recorder configured", http.StatusNotFound)
		return
	}
	path, err := a.src.DumpFlight(fr, "on-demand")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]string{"dumped": path})
}
