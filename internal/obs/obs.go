// Package obs is the unified telemetry layer shared by every device model
// and operating-system layer in this repository.
//
// It has three pieces:
//
//   - a metrics Registry of named, labelled collectors — counters, gauges,
//     and histograms (the existing sim.Histogram behind the common
//     Collector interface) — with point-in-time Snapshot and Diff support
//     so experiments can report deltas instead of absolute totals;
//   - a virtual-time span Tracer (trace.go): every instrumented operation
//     records a structured span (start/end in sim.Time, layer, op, bytes,
//     energy, outcome) into a bounded ring buffer with pluggable sinks —
//     JSONL and Chrome trace_event format, so a run opens directly in
//     chrome://tracing or Perfetto;
//   - an Observer, the handle the storage layers hold. All Observer
//     methods are nil-safe, so an uninstrumented run costs almost nothing
//     and layers never need to guard their probes.
//
// Per-instance versus aggregate counting. Simulated layers are built many
// times per process (every experiment assembles fresh systems), and their
// Stats() accessors must report that one instance's activity only. The
// Observer therefore hands each layer a private child counter chained to
// the registry's shared aggregate: the child carries the instance-exact
// value the layer's Stats() view reads, while the registered parent
// accumulates across every instance built under the same observer — which
// is what a whole-run metrics dump wants.
package obs

import (
	"fmt"
	"sort"
	"strings"
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
// allocates and sorts, so it runs once per series — at registration, or
// when a snapshot operation changes a metric's labels — never inside a
// sort comparator or a search loop.
func metricKey(name string, l Labels) string {
	if len(l) == 0 {
		return name
	}
	var buf [8]string // label sets are small; keep the key list off the heap
	keys := buf[:0]
	size := len(name) + 1 + len(l) // braces and commas
	for k, v := range l {
		keys = append(keys, k)
		size += len(k) + 1 + len(v)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.Grow(size)
	b.WriteString(name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(l[k])
	}
	b.WriteByte('}')
	return b.String()
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
	parent *Counter // registry aggregate this instance feeds, if any
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
	if c.parent != nil {
		c.parent.v.Add(d)
	}
}

// Inc increases the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value reports the current count (this instance's, not the aggregate).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
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

// Add offsets the gauge value.
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
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
// interface, adding a mutex (sim.Histogram itself is single-threaded) and
// optional chaining to a registry aggregate. Nil-safe.
type Histogram struct {
	name   string
	labels Labels
	mu     sync.Mutex
	h      *sim.Histogram
	parent *Histogram
}

// NewHistogram returns a standalone histogram.
func NewHistogram(name string, labels Labels) *Histogram {
	return &Histogram{name: name, labels: labels.clone(), h: sim.NewHistogram(name)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.h.Observe(v)
	h.mu.Unlock()
	if h.parent != nil {
		h.parent.Observe(v)
	}
}

// ObserveDuration records a latency sample in nanoseconds.
func (h *Histogram) ObserveDuration(d sim.Duration) { h.Observe(float64(d)) }

// Sim exposes the underlying sim.Histogram for read access after a
// single-threaded run (the experiments' latency tables read it directly).
func (h *Histogram) Sim() *sim.Histogram {
	if h == nil {
		return nil
	}
	return h.h
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
	mu    sync.Mutex
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
	key := metricKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.byKey[key]; ok {
		if c.Kind() != kind {
			panic(fmt.Sprintf("obs: metric %s registered as %s, requested as %s", key, c.Kind(), kind))
		}
		return c
	}
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
	return r.lookup(name, labels, KindHistogram, func() Collector { return NewHistogram(name, labels) }).(*Histogram)
}

// Merge folds every collector registered in src into r: counter values
// add, histograms merge sample-exactly, and gauges adopt the source's
// value (or read-through function — "most recent instance wins", exactly
// as re-registering a GaugeFunc does). Collectors missing from r are
// created, preserving src's registration order, so merging the same
// sequence of registries always yields the same collector order — the
// property that makes parallel experiment runs dump byte-identical
// metrics. src must not be mutated concurrently with the merge.
//
// GaugeFunc liveness survives the merge: a merged read-through gauge
// keeps reading the source instance's function, so later collections see
// that instance's live state, not a value frozen at merge time. The
// flip side is that merging a plain (function-less) gauge must CLEAR any
// read-through a previous merge installed — otherwise the stale function
// shadows the newer value forever and the merged gauge appears frozen.
// Snapshot/Diff are point-in-time by design; liveness is the registry's
// concern, not the snapshot's.
func (r *Registry) Merge(src *Registry) {
	if src == nil {
		return
	}
	for _, c := range src.Collectors() {
		name, labels := c.Name(), c.Labels()
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

// MergeLabeled is Merge with extra labels stamped onto every collector
// as it lands in r: merging node registries with {"node": name} keeps
// identically-named per-node series distinct instead of colliding into
// one aggregate. Labels already present on a collector win over the
// extras only if the keys collide — the merge is for adding a dimension,
// not rewriting one. With no extra labels it is exactly Merge.
func (r *Registry) MergeLabeled(src *Registry, extra Labels) {
	if src == nil {
		return
	}
	if len(extra) == 0 {
		r.Merge(src)
		return
	}
	for _, c := range src.Collectors() {
		name := c.Name()
		labels := c.Labels()
		if labels == nil {
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
	reqCtx  atomic.Pointer[TraceContext]
	spanIDs atomic.Uint64
	ctxFree atomic.Pointer[TraceContext]
	// cause is the active wear-attribution cause (see PushCause); the
	// flash layer charges every program and erase against it.
	// causeRestore caches one restore closure per possible previous
	// cause (index 0 is "none"), built once on first push.
	cause        atomic.Pointer[Cause]
	causeOnce    sync.Once
	causeReady   atomic.Bool
	causeRestore [len(causeInterned) + 1]func()
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

// Counter returns a per-instance counter chained to the registry aggregate
// for name+labels. With a nil observer (or registry) the counter is
// standalone: it still counts, it is just not exported anywhere.
func (o *Observer) Counter(name string, labels Labels) *Counter {
	c := NewCounter(name, labels)
	if o != nil && o.Registry != nil {
		c.parent = o.Registry.Counter(name, labels)
	}
	return c
}

// Gauge returns the registered gauge, or a standalone one without an
// observer. Gauges are not chained: they describe current state, and the
// aggregate of two instantaneous states has no meaning.
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

// Histogram returns a per-instance histogram chained to the registry
// aggregate, or a standalone one without an observer.
func (o *Observer) Histogram(name string, labels Labels) *Histogram {
	h := NewHistogram(name, labels)
	if o != nil && o.Registry != nil {
		h.parent = o.Registry.Histogram(name, labels)
	}
	return h
}

// Merge folds src's registered metrics and retained spans into o (see
// Registry.Merge and Tracer.Merge). A nil receiver or source is a no-op,
// so callers can merge unconditionally.
func (o *Observer) Merge(src *Observer) {
	if o == nil || src == nil {
		return
	}
	if o.Registry != nil {
		o.Registry.Merge(src.Registry)
	}
	if o.Tracer != nil {
		o.Tracer.Merge(src.Tracer)
	}
	o.mergeEvents(src)
}

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

// Default observer: the fallback layers use when their Config carries no
// explicit observer. The CLIs set it so every system an experiment
// assembles — including raw devices built deep inside exp functions — is
// wired without threading an observer through each call chain.
var (
	defaultMu  sync.RWMutex
	defaultObs *Observer
)

// SetDefault installs the process-wide default observer (nil to clear).
func SetDefault(o *Observer) {
	defaultMu.Lock()
	defaultObs = o
	defaultMu.Unlock()
}

// Default reports the process-wide default observer; may be nil.
func Default() *Observer {
	defaultMu.RLock()
	defer defaultMu.RUnlock()
	return defaultObs
}

// Or resolves an explicitly configured observer against the default:
// layers call obs.Or(cfg.Obs) once at construction.
func Or(o *Observer) *Observer {
	if o != nil {
		return o
	}
	return Default()
}
