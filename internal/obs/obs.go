// Package obs is the unified telemetry layer shared by every device model
// and operating-system layer in this repository.
//
// It has three pieces:
//
//   - a metrics Registry of named, labelled collectors — counters, gauges,
//     and histograms (the existing sim.Histogram behind the common
//     Collector interface) — with point-in-time Snapshots;
//   - a virtual-time span Tracer (trace.go): every instrumented operation
//     records a structured span (start/end in sim.Time, layer, op, bytes,
//     energy, outcome) into a bounded ring buffer (ring.go, which the
//     cluster EventLog shares), dumped as a JSONL stream (stream.go) or in
//     Chrome trace_event format, so a run opens directly in
//     chrome://tracing or Perfetto;
//   - an Observer, the handle the storage layers hold. All Observer
//     methods are nil-safe, so an uninstrumented run costs almost nothing
//     and layers never need to guard their probes.
//
// Two closed vocabularies label what the layers report: the latency
// Stage a span's time belongs to (context.go) and the wear Cause a flash
// program or erase is charged to (cause.go). Each is an int enum with
// one table of names, so a hot path indexes an array where it would
// otherwise compare strings.
//
// Counter series and their instances. Simulated layers are built many
// times per process (every experiment assembles fresh systems), and
// their Stats() accessors must report that one instance's activity only.
// Observer.Counter therefore hands each layer a private instance and
// links it into the registered series for its name and labels: an Add
// is one atomic add on the instance, and the series' Value — what
// Collect, Snapshot and Merge read — is its own adds plus every linked
// instance's, summed when read. An instance is never unlinked, so a dead
// instance's adds (a card's layers before a Restart) stay in the sum;
// the list pins only the Counter values, which hold no pointer to their
// layer, and lives as long as the observer. Long runs give each job a
// private observer that is merged and then dropped (core.Env), which
// releases its lists. Histograms are per series, not per instance: no
// Stats() view reads one, so Observer.Histogram returns the registered
// series itself and a sample is recorded once. The one caller that
// reports its own latencies (core.Replay) keeps standalone histograms
// beside the series it feeds.
//
// Histogram locking. A registry's histograms share one lock, which the
// Registry owns; a standalone NewHistogram has its own. Observe, Collect,
// Merge and MergeLabeled take it, and ObserveAll records a batch taking
// it once for a run of histograms that share it: a served request's
// seven samples cost one acquisition. The lock stays although every
// serving-path reader already collects under its writers' lock
// (Server.Snapshot and Server.DumpFlight under Server.mu, the cluster's
// under Cluster.mu, OnShedEngage inside a request): a Registry is safe
// for concurrent use on its own.
//
// Open spans. Observer.Span returns a two-word SpanRef naming a frame on
// a span stack: the active request's (see TraceContext) or, outside a
// request, the observer's own background stack. End writes the span from
// its frame straight into the ring, with the energy the span's meter
// drew across it; devices charge that meter through accounts they
// resolve once (sim.EnergyMeter.Account), so a charge is two adds.
//
// One writer per observer. The span stacks, the Tracer's ring, the
// request state (the installed context, the span-ID counter, the spare
// context) and the active wear cause (cause.go) take no lock and no
// atomic: an Observer has one writer at a
// time, which the server's and the cluster's mutexes and the parallel
// experiment engine's per-job observers provide. The ring's readers
// (Tracer.Spans, Dropped, Merge; FlightRecorder.Dump,
// DumpFiles) run under the lock that serializes the writer, or after it
// has stopped; DESIGN §10 lists them.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"ssmobile/internal/sim"
)

// Labels attach dimensions to a metric, e.g.
// {"layer": "ftl", "op": "erase"}.
type Labels map[string]string

// clone copies the label set so callers cannot mutate registered state.
func (l Labels) clone() Labels {
	if len(l) == 0 {
		return nil
	}
	out := make(Labels, len(l))
	for k, v := range l {
		out[k] = v
	}
	return out
}

// metricKey renders the canonical identity string "name{k=v,k=v}" with
// sorted label keys, used for registry lookup and snapshot matching. It
// sorts, so it runs once per series — at registration, or when a
// snapshot operation changes a metric's labels — never inside a sort
// comparator or a search loop.
func metricKey(name string, l Labels) string {
	if len(l) == 0 {
		return name
	}
	var buf [128]byte
	return string(appendMetricKey(buf[:0], name, l))
}

// appendMetricKey appends metricKey(name, l) to b, so a lookup can build
// the key in a stack buffer and allocate only for a new series.
func appendMetricKey(b []byte, name string, l Labels) []byte {
	b = append(b, name...)
	if len(l) == 0 {
		return b
	}
	var buf [8]string // label sets are small; keep the key list off the heap
	keys := buf[:0]
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b = append(b, '{')
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, k...)
		b = append(b, '=')
		b = append(b, l[k]...)
	}
	return append(b, '}')
}

// Kind distinguishes collector types.
type Kind string

// Collector kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Collector is the common interface of every registered metric.
type Collector interface {
	// Name reports the metric name.
	Name() string
	// Labels reports the metric's label set (a copy).
	Labels() Labels
	// Kind reports the collector type.
	Kind() Kind
	// Collect captures the current value as a point-in-time Metric.
	Collect() Metric
}

// Counter is a monotonically increasing count. The zero value is unusable;
// use NewCounter, Registry.Counter or Observer.Counter. All methods are
// safe for concurrent use and nil-safe.
type Counter struct {
	name   string
	labels Labels
	v      atomic.Int64
	// instances heads a registered series' list of the instances
	// Observer.Counter linked to it, chained through next; next is set
	// before the instance is published, so readers walk it unlocked.
	instances atomic.Pointer[Counter]
	next      *Counter
}

// NewCounter returns a standalone (unregistered) counter.
func NewCounter(name string, labels Labels) *Counter {
	return &Counter{name: name, labels: labels.clone()}
}

// Add increases the counter by d.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Inc increases the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value reports the current count: an instance's own adds, or a
// series' own adds plus those of every instance linked to it.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	n := c.v.Load()
	for in := c.instances.Load(); in != nil; in = in.next {
		n += in.v.Load()
	}
	return n
}

// Name implements Collector.
func (c *Counter) Name() string { return c.name }

// Labels implements Collector.
func (c *Counter) Labels() Labels { return c.labels.clone() }

// Kind implements Collector.
func (c *Counter) Kind() Kind { return KindCounter }

// Collect implements Collector.
func (c *Counter) Collect() Metric {
	return Metric{Name: c.name, Labels: c.labels.clone(), Kind: KindCounter, Value: float64(c.Value())}
}

// Gauge is a value that can go up and down (frames in use, free blocks).
// Optionally it reads through a function, for values derived from live
// simulation state. Safe for concurrent use and nil-safe.
type Gauge struct {
	name   string
	labels Labels
	v      atomic.Int64
	mu     sync.Mutex
	fn     func() float64
}

// NewGauge returns a standalone gauge.
func NewGauge(name string, labels Labels) *Gauge {
	return &Gauge{name: name, labels: labels.clone()}
}

// Set stores the gauge value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value reports the gauge value (ignoring any read-through function).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// setFunc installs (or replaces) a read-through function; Collect then
// reports fn() instead of the stored value. Re-registering a GaugeFunc for
// a new layer instance replaces the function, so the registry always reads
// the most recently built instance.
func (g *Gauge) setFunc(fn func() float64) {
	g.mu.Lock()
	g.fn = fn
	g.mu.Unlock()
}

// Name implements Collector.
func (g *Gauge) Name() string { return g.name }

// Labels implements Collector.
func (g *Gauge) Labels() Labels { return g.labels.clone() }

// Kind implements Collector.
func (g *Gauge) Kind() Kind { return KindGauge }

// Collect implements Collector.
func (g *Gauge) Collect() Metric {
	g.mu.Lock()
	fn := g.fn
	g.mu.Unlock()
	v := float64(g.Value())
	if fn != nil {
		v = fn()
	}
	return Metric{Name: g.name, Labels: g.labels.clone(), Kind: KindGauge, Value: v}
}

// Histogram puts the existing sim.Histogram behind the Collector
// interface, adding a lock (sim.Histogram itself is single-threaded):
// the registry's histogram lock for a registered series, its own for a
// standalone one. Nil-safe.
type Histogram struct {
	name   string
	labels Labels
	mu     *sync.Mutex // guards h; &own or the registry's hist
	own    sync.Mutex
	h      *sim.Histogram
}

// NewHistogram returns a standalone histogram.
func NewHistogram(name string, labels Labels) *Histogram {
	return newHistogram(name, labels, nil)
}

// newHistogram builds a histogram guarded by mu, or by its own lock when
// mu is nil.
func newHistogram(name string, labels Labels, mu *sync.Mutex) *Histogram {
	h := &Histogram{name: name, labels: labels.clone(), mu: mu, h: sim.NewHistogram(name)}
	if mu == nil {
		h.mu = &h.own
	}
	return h
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.h.Observe(v)
	h.mu.Unlock()
}

// ObserveDuration records a latency sample in nanoseconds.
func (h *Histogram) ObserveDuration(d sim.Duration) { h.Observe(float64(d)) }

// ObserveAll records vs[i] into hs[i] for every i, skipping nil
// histograms. A run of histograms that share a lock takes it once: all
// of one registry's series do, so a request's samples into its
// observer's registry cost one lock acquisition, not one each.
func ObserveAll(hs []*Histogram, vs []float64) {
	var held *sync.Mutex
	for i, h := range hs {
		if h == nil {
			continue
		}
		if h.mu != held {
			if held != nil {
				held.Unlock()
			}
			held = h.mu
			held.Lock()
		}
		h.h.Observe(vs[i])
	}
	if held != nil {
		held.Unlock()
	}
}

// Name implements Collector.
func (h *Histogram) Name() string { return h.name }

// Labels implements Collector.
func (h *Histogram) Labels() Labels { return h.labels.clone() }

// Kind implements Collector.
func (h *Histogram) Kind() Kind { return KindHistogram }

// Collect implements Collector.
func (h *Histogram) Collect() Metric {
	h.mu.Lock()
	defer h.mu.Unlock()
	return Metric{
		Name: h.name, Labels: h.labels.clone(), Kind: KindHistogram,
		Count: h.h.Count(), Sum: h.h.Sum(),
		Min: h.h.Min(), Max: h.h.Max(),
		P50: h.h.Quantile(0.5), P95: h.h.Quantile(0.95), P99: h.h.Quantile(0.99),
	}
}

// Registry holds the process's registered collectors. Safe for concurrent
// use. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu sync.Mutex
	// hist guards every registered histogram's samples: observing,
	// collecting and merging one take it (see ObserveAll).
	hist  sync.Mutex
	byKey map[string]Collector
	order []Collector
	// keys[i] is order[i]'s canonical key, built once by lookup and
	// stamped onto every Metric a Snapshot collects from it. byKeyOrder
	// lists the indices of order in key order — the order Snapshot emits —
	// and is rebuilt (as a fresh slice, never in place) by the first
	// Snapshot after a registration, so a snapshot of an unchanged
	// registry does no sorting at all.
	keys       []string
	byKeyOrder []int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]Collector)}
}

// lookup returns the collector for key, or creates it with mk and
// registers it. Panics if the key exists with a different kind — that is a
// programming error, not a runtime condition.
func (r *Registry) lookup(name string, labels Labels, kind Kind, mk func() Collector) Collector {
	var buf [128]byte
	kb := appendMetricKey(buf[:0], name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.byKey[string(kb)]; ok {
		if c.Kind() != kind {
			panic(fmt.Sprintf("obs: metric %s registered as %s, requested as %s", string(kb), c.Kind(), kind))
		}
		return c
	}
	key := string(kb)
	c := mk()
	r.byKey[key] = c
	r.order = append(r.order, c)
	r.keys = append(r.keys, key)
	return c
}

// Counter returns the registered counter for name+labels, creating it on
// first use.
func (r *Registry) Counter(name string, labels Labels) *Counter {
	return r.lookup(name, labels, KindCounter, func() Collector { return NewCounter(name, labels) }).(*Counter)
}

// Gauge returns the registered gauge for name+labels, creating it on
// first use.
func (r *Registry) Gauge(name string, labels Labels) *Gauge {
	return r.lookup(name, labels, KindGauge, func() Collector { return NewGauge(name, labels) }).(*Gauge)
}

// GaugeFunc registers (or re-points) a gauge that reads through fn at
// collection time. When several layer instances register the same gauge,
// the most recent instance wins — the registry reports live state, and
// live state belongs to the newest instance.
func (r *Registry) GaugeFunc(name string, labels Labels, fn func() float64) *Gauge {
	g := r.Gauge(name, labels)
	g.setFunc(fn)
	return g
}

// Histogram returns the registered histogram for name+labels, creating it
// on first use.
func (r *Registry) Histogram(name string, labels Labels) *Histogram {
	return r.lookup(name, labels, KindHistogram, func() Collector { return newHistogram(name, labels, &r.hist) }).(*Histogram)
}

// MergeLabeled folds every collector registered in src into r, with
// extra labels stamped onto each as it lands: counter values add,
// histograms merge sample-exactly, and gauges adopt the source's value
// (or read-through function — "most recent instance wins", exactly as
// re-registering a GaugeFunc does). Collectors missing from r are
// created, preserving src's registration order, so merging the same
// sequence of registries always yields the same collector order — the
// property that makes parallel experiment runs dump byte-identical
// metrics. src must not be mutated concurrently with the merge.
//
// Merging node registries with {"node": name} keeps identically-named
// per-node series distinct instead of colliding into one aggregate.
// Labels already present on a collector win over the extras only if the
// keys collide — the merge is for adding a dimension, not rewriting one.
//
// GaugeFunc liveness survives the merge: a merged read-through gauge
// keeps reading the source instance's function, so later collections see
// that instance's live state, not a value frozen at merge time. The
// flip side is that merging a plain (function-less) gauge must CLEAR any
// read-through a previous merge installed — otherwise the stale function
// shadows the newer value forever and the merged gauge appears frozen.
// Snapshots are point-in-time by design; liveness is the registry's
// concern, not the snapshot's.
func (r *Registry) MergeLabeled(src *Registry, extra Labels) {
	if src == nil {
		return
	}
	for _, c := range src.Collectors() {
		name, labels := c.Name(), c.Labels()
		if len(extra) > 0 && labels == nil {
			labels = make(Labels, len(extra))
		}
		for k, v := range extra {
			if _, ok := labels[k]; !ok {
				labels[k] = v
			}
		}
		switch sc := c.(type) {
		case *Counter:
			r.Counter(name, labels).Add(sc.Value())
		case *Gauge:
			g := r.Gauge(name, labels)
			sc.mu.Lock()
			fn := sc.fn
			sc.mu.Unlock()
			if fn != nil {
				g.setFunc(fn)
			} else {
				// Most recent instance wins: drop any read-through from an
				// earlier merge so the plain value is actually visible.
				g.setFunc(nil)
				g.Set(sc.Value())
			}
		case *Histogram:
			dst := r.Histogram(name, labels)
			sc.mu.Lock()
			dst.mu.Lock()
			dst.h.Merge(sc.h)
			dst.mu.Unlock()
			sc.mu.Unlock()
		}
	}
}

// Collectors returns the registered collectors in registration order.
func (r *Registry) Collectors() []Collector {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Collector, len(r.order))
	copy(out, r.order)
	return out
}

// Observer bundles the registry and tracer the instrumented layers write
// into. A nil *Observer is fully usable: metric constructors return live
// standalone collectors (so layer Stats() views keep working) and Span
// returns a no-op.
type Observer struct {
	Registry *Registry
	Tracer   *Tracer

	// reqCtx is the active request's trace context (see BeginRequest);
	// spanIDs allocates span identities within this observer's stream.
	// ctxFree holds one retired context for reuse — requests do not nest,
	// so a single spare makes the enabled trace path allocation-free.
	// Like the span stacks and the Tracer, they have one writer and take
	// no lock (DESIGN §10).
	reqCtx  *TraceContext
	spanIDs uint64
	ctxFree *TraceContext
	// spans is the background stack: spans opened outside any request.
	spans spanStack
	// cause is the active wear-attribution cause (see SetCause); the
	// flash layer charges every program and erase against it. It has the
	// trace state's one writer (DESIGN §10).
	cause Cause
	// flight is the attached flight recorder, if any (SetFlightRecorder);
	// subsystems that witness an incident (power-cut remount) dump
	// through it without knowing who configured it.
	flight atomic.Pointer[FlightRecorder]
	// events is the attached cluster event journal, if any (SetEventLog);
	// the cluster control plane appends through it the same way.
	events atomic.Pointer[EventLog]
}

// New returns an observer with a fresh registry and a tracer holding up to
// traceCapacity spans (<=0 selects the default capacity).
func New(traceCapacity int) *Observer {
	return &Observer{Registry: NewRegistry(), Tracer: NewTracer(traceCapacity)}
}

// Counter returns a per-instance counter linked into the registered
// series for name+labels, whose Value then includes this instance's
// adds. With a nil observer (or registry) the counter is standalone: it
// still counts, it is just not exported anywhere.
func (o *Observer) Counter(name string, labels Labels) *Counter {
	c := NewCounter(name, labels)
	if o != nil && o.Registry != nil {
		r := o.Registry
		s := r.Counter(name, labels)
		r.mu.Lock()
		c.next = s.instances.Load()
		s.instances.Store(c)
		r.mu.Unlock()
	}
	return c
}

// Gauge returns the registered gauge, or a standalone one without an
// observer. Gauges have no per-instance counterpart: they describe current
// state, and the sum of two instantaneous states has no meaning.
func (o *Observer) Gauge(name string, labels Labels) *Gauge {
	if o != nil && o.Registry != nil {
		return o.Registry.Gauge(name, labels)
	}
	return NewGauge(name, labels)
}

// Exports reports whether metrics registered on this observer reach a
// registry. Construction-heavy layers consult it to skip building
// read-through gauges nothing can ever collect (the flash wear surface
// alone registers a hundred of them per device).
func (o *Observer) Exports() bool { return o != nil && o.Registry != nil }

// GaugeFunc registers a read-through gauge (see Registry.GaugeFunc).
// Without a registry it returns nil — a nil *Gauge is a documented
// no-op, and a standalone read-through gauge could never be collected
// anyway, so there is nothing to build.
func (o *Observer) GaugeFunc(name string, labels Labels, fn func() float64) *Gauge {
	if o != nil && o.Registry != nil {
		return o.Registry.GaugeFunc(name, labels, fn)
	}
	return nil
}

// Histogram returns the registered histogram for name+labels, or a
// standalone one without an observer. Histograms have no per-instance
// counterpart: every instance built under one observer observes into the
// same series, so a sample costs one update. A caller that must report its own samples
// apart from the run's keeps a standalone NewHistogram for them.
func (o *Observer) Histogram(name string, labels Labels) *Histogram {
	if o != nil && o.Registry != nil {
		return o.Registry.Histogram(name, labels)
	}
	return NewHistogram(name, labels)
}

// Merge folds src's registered metrics and retained spans into o (see
// Registry.Merge and Tracer.Merge). A nil receiver or source is a no-op,
// so callers can merge unconditionally.
func (o *Observer) Merge(src *Observer) { o.MergeLabeled(src, nil) }

// mergeEvents folds src's event journal into o's: adopt the journal when
// o has none, append otherwise. A shared journal (the same log attached
// to both observers, as the cluster front end does) is left alone.
func (o *Observer) mergeEvents(src *Observer) {
	sl := src.EventLog()
	if sl == nil {
		return
	}
	dl := o.EventLog()
	if dl == nil {
		o.SetEventLog(sl)
		return
	}
	if dl != sl {
		dl.Merge(sl)
	}
}

// MergeLabeled folds src into o with extra labels stamped onto every
// metric (see Registry.MergeLabeled). Spans merge unlabelled — they
// already carry per-node identity via Span.Node when the source tracer
// was stamped with SetNode.
func (o *Observer) MergeLabeled(src *Observer, extra Labels) {
	if o == nil || src == nil {
		return
	}
	if o.Registry != nil {
		o.Registry.MergeLabeled(src.Registry, extra)
	}
	if o.Tracer != nil {
		o.Tracer.Merge(src.Tracer)
	}
	o.mergeEvents(src)
}
