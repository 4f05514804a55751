package obs

import (
	"bytes"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

func TestMetricKeySortsLabels(t *testing.T) {
	a := metricKey("ops_total", Labels{"op": "write", "layer": "ftl"})
	b := metricKey("ops_total", Labels{"layer": "ftl", "op": "write"})
	if a != b {
		t.Fatalf("label order changed the key: %q vs %q", a, b)
	}
	if want := "ops_total{layer=ftl,op=write}"; a != want {
		t.Fatalf("key = %q, want %q", a, want)
	}
	if got := metricKey("plain", nil); got != "plain" {
		t.Fatalf("unlabelled key = %q, want %q", got, "plain")
	}
}

func TestCounterChainsToRegistryAggregate(t *testing.T) {
	o := New(0)
	lbl := Labels{"layer": "ftl"}
	// Three layer instances under one observer and a direct add on the
	// registered series: each instance reads its own count, the series
	// reads the sum.
	c1 := o.Counter("host_ops_total", lbl)
	c2 := o.Counter("host_ops_total", lbl)
	c1.Add(3)
	c2.Add(4)
	func() {
		// An instance nothing references any more (a card's layers
		// before a Restart) keeps its adds in the series.
		o.Counter("host_ops_total", lbl).Add(5)
	}()
	runtime.GC()
	series := o.Registry.Counter("host_ops_total", lbl)
	series.Add(10)
	if c1.Value() != 3 || c2.Value() != 4 {
		t.Fatalf("instance values = %d, %d; want 3, 4", c1.Value(), c2.Value())
	}
	if got := series.Value(); got != 22 {
		t.Fatalf("series value = %d, want 22", got)
	}
	m, ok := o.Registry.Snapshot().Find("host_ops_total", lbl)
	if !ok {
		t.Fatal("series missing from snapshot")
	}
	if m.Value != 22 {
		t.Fatalf("snapshot value = %v, want 22", m.Value)
	}
	dst := NewRegistry()
	dst.MergeLabeled(o.Registry, nil)
	dst.MergeLabeled(o.Registry, Labels{"node": "n1"})
	if got := dst.Counter("host_ops_total", lbl).Value(); got != 22 {
		t.Fatalf("merged series = %d, want 22", got)
	}
	if got := dst.Counter("host_ops_total", Labels{"layer": "ftl", "node": "n1"}).Value(); got != 22 {
		t.Fatalf("label-merged series = %d, want 22", got)
	}
}

// Adds to linked instances, new attachments and snapshots all race here
// (run under -race in CI): every snapshot reads a total no lower than the
// one before it, and the last reads every add.
func TestCounterAttachWhileCollecting(t *testing.T) {
	o := New(0)
	lbl := Labels{"layer": "test"}
	const adders, attachers, iters = 4, 2, 500
	var wg sync.WaitGroup
	for g := 0; g < adders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := o.Counter("attach_total", lbl)
			for i := 0; i < iters; i++ {
				c.Inc()
			}
		}()
	}
	for g := 0; g < attachers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				o.Counter("attach_total", lbl).Inc()
			}
		}()
	}
	done := make(chan struct{})
	var snaps sync.WaitGroup
	snaps.Add(1)
	go func() {
		defer snaps.Done()
		last := 0.0
		for {
			select {
			case <-done:
				return
			default:
			}
			m, _ := o.Registry.Snapshot().Find("attach_total", lbl)
			if m.Value < last {
				t.Errorf("snapshot went back from %v to %v", last, m.Value)
				return
			}
			last = m.Value
		}
	}()
	wg.Wait()
	close(done)
	snaps.Wait()
	m, _ := o.Registry.Snapshot().Find("attach_total", lbl)
	if want := float64((adders + attachers) * iters); m.Value != want {
		t.Fatalf("series = %v, want %v", m.Value, want)
	}
}

func TestHistogramIsTheRegistrySeries(t *testing.T) {
	o := New(0)
	// Two layer instances under one observer get the one registered
	// series: each sample is recorded once, and both handles see both.
	h1 := o.Histogram("lat", nil)
	h2 := o.Histogram("lat", nil)
	if h1 != h2 {
		t.Fatal("two handles for one name and label set are different series")
	}
	h1.Observe(10)
	h2.Observe(20)
	if got := h1.Collect().Count; got != 2 {
		t.Fatalf("series count = %d, want 2", got)
	}
	var none *Observer
	if none.Histogram("lat", nil) == none.Histogram("lat", nil) {
		t.Fatal("without a registry two handles share one histogram")
	}
	m, ok := o.Registry.Snapshot().Find("lat", nil)
	if !ok {
		t.Fatal("aggregate histogram missing from snapshot")
	}
	if m.Count != 2 || m.Sum != 30 {
		t.Fatalf("aggregate count/sum = %d/%v, want 2/30", m.Count, m.Sum)
	}
}

func TestRegistryConcurrency(t *testing.T) {
	// Exercised under -race in CI: concurrent registration, increments,
	// gauge-func re-pointing and snapshots on one registry.
	o := New(0)
	const goroutines, iters = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := o.Counter("shared_total", Labels{"layer": "test"})
			h := o.Histogram("shared_lat", nil)
			for i := 0; i < iters; i++ {
				c.Inc()
				h.Observe(float64(i))
				o.GaugeFunc("shared_gauge", nil, func() float64 { return float64(g) })
				if i%100 == 0 {
					o.Registry.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	snap := o.Registry.Snapshot()
	if m, _ := snap.Find("shared_total", Labels{"layer": "test"}); m.Value != goroutines*iters {
		t.Fatalf("counter aggregate = %v, want %d", m.Value, goroutines*iters)
	}
	if m, _ := snap.Find("shared_lat", nil); m.Count != goroutines*iters {
		t.Fatalf("histogram aggregate count = %d, want %d", m.Count, goroutines*iters)
	}
}

// TestObserveAllConcurrent folds batches into one registry's series
// from several goroutines while others snapshot the registry and merge
// it into registries of their own: under -race, and every count sums
// exactly. Standalone histograms, each under its own lock, ride in the
// same batches.
func TestObserveAllConcurrent(t *testing.T) {
	r := NewRegistry()
	const folders, readers, batches = 4, 2, 500
	var hs []*Histogram
	for _, name := range []string{"a", "b", "c"} {
		hs = append(hs, r.Histogram("fold_lat", Labels{"series": name}))
	}
	own := NewHistogram("fold_own", nil)
	hs = append(hs, nil, own, hs[0])
	vs := []float64{1, 20, 300, 4000, 50000, 6}
	var wg sync.WaitGroup
	for g := 0; g < folders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				ObserveAll(hs, vs)
			}
		}()
	}
	done := make(chan struct{})
	var rg sync.WaitGroup
	for g := 0; g < readers; g++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				r.Snapshot()
				NewRegistry().MergeLabeled(r, nil)
				own.Collect()
			}
		}()
	}
	wg.Wait()
	close(done)
	rg.Wait()
	merged := NewRegistry()
	merged.MergeLabeled(r, nil)
	snap := merged.Snapshot()
	for name, want := range map[string]int64{"a": 2 * folders * batches, "b": folders * batches, "c": folders * batches} {
		if m, _ := snap.Find("fold_lat", Labels{"series": name}); m.Count != want {
			t.Errorf("fold_lat{series=%s} count = %d, want %d", name, m.Count, want)
		}
	}
	if m := own.Collect(); m.Count != folders*batches || m.Sum != folders*batches*50000 {
		t.Errorf("standalone count/sum = %d/%v, want %d/%d", m.Count, m.Sum, folders*batches, folders*batches*50000)
	}
}

func TestKindClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("m", nil)
}

func TestNilObserverIsUsable(t *testing.T) {
	var o *Observer
	c := o.Counter("c", nil)
	c.Add(2)
	if c.Value() != 2 {
		t.Fatalf("standalone counter = %d, want 2", c.Value())
	}
	g := o.Gauge("g", nil)
	g.Set(5)
	if g.Value() != 5 {
		t.Fatalf("standalone gauge = %d, want 5", g.Value())
	}
	h := o.Histogram("h", nil)
	h.Observe(1)
	if h.Collect().Count != 1 {
		t.Fatalf("standalone histogram count = %d, want 1", h.Collect().Count)
	}
	// And the nil collectors themselves are no-ops, not crashes.
	var nc *Counter
	nc.Inc()
	var ng *Gauge
	ng.Add(1)
	var nh *Histogram
	nh.Observe(1)
	sp := o.Span(nil, nil, "l", "op")
	sp.End(0, nil)
}

func TestGaugeFuncLastRegistrationWins(t *testing.T) {
	o := New(0)
	o.GaugeFunc("free", nil, func() float64 { return 1 })
	o.GaugeFunc("free", nil, func() float64 { return 2 })
	m, ok := o.Registry.Snapshot().Find("free", nil)
	if !ok {
		t.Fatal("gauge missing from snapshot")
	}
	if m.Value != 2 {
		t.Fatalf("gauge reads %v, want the newest instance's 2", m.Value)
	}
}

// WriteJSON then ReadSnapshot must reproduce a snapshot of every kind of
// metric exactly.
func TestSnapshotRoundTrip(t *testing.T) {
	o := New(0)
	o.Counter("ops_total", Labels{"op": "write"}).Add(15)
	o.Gauge("in_use", nil).Set(7)
	h := o.Histogram("lat", nil)
	h.Observe(100)
	h.Observe(200)
	now := o.Registry.Snapshot()

	var buf bytes.Buffer
	if err := now.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	back, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if !reflect.DeepEqual(now, back) {
		t.Fatalf("round trip changed the snapshot:\nwrote %+v\nread  %+v", now, back)
	}
}
