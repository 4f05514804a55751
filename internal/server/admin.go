// Live ops surface for the object-storage service: a second, plain-HTTP
// listener exposing the process's metrics, health, profiles and flight
// recorder. It is deliberately separate from the data-plane TCP port so
// an operator can still scrape a wedged server, and so the data protocol
// stays nc(1)-simple.
//
// Endpoints:
//
//	/metrics             Prometheus text exposition of the obs Registry
//	/healthz             JSON {status, state, draining, shedding}; the
//	                     admission-control state is serving, shedding or
//	                     draining, and draining degrades to HTTP 503
//	/debug/health        SMART-style device-health report (flash.HealthReport
//	                     JSON): endurance budget, wear spread, windowed burn
//	                     rate and the lifetime left at it; ?device= selects a
//	                     card other than the default "flash"
//	/debug/fleet         cluster-wide health rollup (cluster.FleetReport
//	                     JSON) when a fleet source is configured; 404 on a
//	                     single node
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

// Admin is the ops-surface HTTP server.
type Admin struct {
	srv *Server
	o   *obs.Observer

	mu       sync.Mutex
	ln       net.Listener
	hs       *http.Server
	draining bool

	// snapshot, when set, replaces the registry as /metrics' source — the
	// cluster front end installs its merged fleet snapshot here so
	// per-node series (stamped with a node label at merge time) are
	// scraped live instead of the front-end registry's last merge.
	snapshot func() obs.Snapshot
	// fleet, when set, serves /debug/fleet. The value is whatever the
	// source marshals to (cluster.FleetReport); typed as any to keep the
	// server package free of a cluster import.
	fleet func() (any, error)
}

// NewAdmin builds the ops surface for srv, exposing o's registry and
// flight recorder (attach one with o.SetFlightRecorder).
func NewAdmin(srv *Server, o *obs.Observer) *Admin {
	return &Admin{srv: srv, o: obs.Or(o)}
}

// SetSnapshotSource replaces /metrics' data source with a point-in-time
// snapshot producer (nil restores the registry). The cluster front end
// uses it so a scrape sees every node's series under its node label,
// assembled at scrape time.
func (a *Admin) SetSnapshotSource(fn func() obs.Snapshot) {
	a.mu.Lock()
	a.snapshot = fn
	a.mu.Unlock()
}

// SetFleet installs the /debug/fleet source (nil uninstalls; the
// endpoint 404s). The returned value is marshalled as indented JSON.
func (a *Admin) SetFleet(fn func() (any, error)) {
	a.mu.Lock()
	a.fleet = fn
	a.mu.Unlock()
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

// collect runs fn — a pass over the registry's collectors — under the
// server's lock. Read-through gauges evaluate live simulation state
// (buffer occupancy, free-block counts, the rate-sampler rings) that
// request handlers mutate under that lock, so an unlocked scrape races
// with every session. Only the collection happens here; handlers format
// and write to the socket after it returns, so a slow scraper never
// stalls the data plane.
func (a *Admin) collect(fn func()) {
	if a.srv != nil {
		a.srv.mu.Lock()
		defer a.srv.mu.Unlock()
	}
	fn()
}

func (a *Admin) handleMetrics(w http.ResponseWriter, r *http.Request) {
	a.mu.Lock()
	snapshot := a.snapshot
	a.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var err error
	if snapshot != nil {
		// The source does its own locking (the cluster's fleet snapshot
		// collects under the cluster mutex).
		err = obs.WriteSnapshotPrometheus(w, snapshot())
	} else {
		var exp obs.Exposition
		a.collect(func() { exp = obs.CollectPrometheus(a.o.Registry) })
		err = exp.Write(w)
	}
	if err != nil {
		// Headers are gone; all we can do is note it inline.
		fmt.Fprintf(w, "# write error: %v\n", err)
	}
}

func (a *Admin) handleHealthz(w http.ResponseWriter, r *http.Request) {
	a.mu.Lock()
	draining := a.draining
	a.mu.Unlock()
	// The transport flips the admin flag on shutdown; a direct Drain on
	// the server (no transport involved) must read the same way.
	draining = draining || (a.srv != nil && a.srv.Draining())
	status := "ok"
	state := "serving"
	code := http.StatusOK
	shedding := a.srv != nil && a.srv.Shedding()
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
// `ssmtrace health` over a -metrics dump can never disagree.
func (a *Admin) handleHealth(w http.ResponseWriter, r *http.Request) {
	if a.o == nil || a.o.Registry == nil {
		http.Error(w, "no metrics registry configured", http.StatusNotFound)
		return
	}
	device := r.URL.Query().Get("device")
	if device == "" {
		device = "flash"
	}
	var snap obs.Snapshot
	a.collect(func() { snap = a.o.Registry.Snapshot() })
	rep, err := flash.HealthFromSnapshot(snap, device)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Write(append(data, '\n'))
}

// handleFleet serves the cluster-wide health rollup. Like /debug/health
// it is backed by a pure function of a metrics snapshot
// (cluster.FleetFromSnapshot), so this endpoint and an offline
// `ssmtrace fleet` over a -metrics dump can never disagree.
func (a *Admin) handleFleet(w http.ResponseWriter, r *http.Request) {
	a.mu.Lock()
	fleet := a.fleet
	a.mu.Unlock()
	if fleet == nil {
		http.Error(w, "no fleet source configured (single-node server)", http.StatusNotFound)
		return
	}
	rep, err := fleet()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
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
	// The dump snapshots the registry, so it runs under the server's lock
	// like every other collection — as the shed-engage dump, taken from
	// inside a request, always has.
	var path string
	var err error
	a.collect(func() { path, err = fr.Dump("on-demand") })
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]string{"dumped": path})
}
