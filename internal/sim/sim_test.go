package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestClockAdvance(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatalf("new clock at %v, want 0", c.Now())
	}
	c.Advance(5 * Millisecond)
	if got := c.Now(); got != Time(5*Millisecond) {
		t.Fatalf("Now() = %v, want 5ms", got)
	}
	c.AdvanceTo(Time(7 * Millisecond))
	if got := c.Now(); got != Time(7*Millisecond) {
		t.Fatalf("Now() = %v, want 7ms", got)
	}
}

func TestClockBackwardsPanics(t *testing.T) {
	c := NewClock()
	c.Advance(Second)
	for name, fn := range map[string]func(){
		"Advance negative": func() { c.Advance(-1) },
		"AdvanceTo past":   func() { c.AdvanceTo(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestDurationConversions(t *testing.T) {
	if got := (500 * Millisecond).Seconds(); got != 0.5 {
		t.Errorf("Seconds() = %v, want 0.5", got)
	}
	if got := Time(1500 * Millisecond).Seconds(); got != 1.5 {
		t.Errorf("Time.Seconds() = %v, want 1.5", got)
	}
	if got := Time(3 * Second).Sub(Time(Second)); got != 2*Second {
		t.Errorf("Sub = %v, want 2s", got)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed streams diverged")
		}
	}
	c := NewRNG(8)
	same := true
	for i := 0; i < 10; i++ {
		if NewRNG(7).Uint64() == c.Uint64() {
			continue
		}
		same = false
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGForkIndependence(t *testing.T) {
	a := NewRNG(1)
	f1 := a.Fork()
	// Consuming from the parent must not affect the already-forked child.
	want := make([]uint64, 5)
	for i := range want {
		want[i] = f1.Uint64()
	}
	b := NewRNG(1)
	f2 := b.Fork()
	b.Uint64() // extra parent draw after forking
	for i := range want {
		if got := f2.Uint64(); got != want[i] {
			t.Fatalf("fork stream changed by parent use: draw %d = %d want %d", i, got, want[i])
		}
	}
}

func TestRNGDistributionsSane(t *testing.T) {
	g := NewRNG(3)
	const n = 20000
	var expSum float64
	for i := 0; i < n; i++ {
		v := g.Exp(10)
		if v < 0 {
			t.Fatal("negative exponential draw")
		}
		expSum += v
	}
	if mean := expSum / n; mean < 9 || mean > 11 {
		t.Errorf("Exp(10) mean = %.2f, want ~10", mean)
	}
	for i := 0; i < 1000; i++ {
		if v := g.LogNormal(0, 1); v <= 0 {
			t.Fatalf("LogNormal draw %v not positive", v)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	g := NewRNG(5)
	z := g.Zipf(1.2, 1000)
	counts := make(map[uint64]int)
	const n = 50000
	for i := 0; i < n; i++ {
		v := z.Next()
		if v >= 1000 {
			t.Fatalf("Zipf draw %d out of range", v)
		}
		counts[v]++
	}
	if counts[0] <= n/100 {
		t.Errorf("Zipf hottest value drawn only %d/%d times; want heavy skew", counts[0], n)
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram("lat")
	for _, v := range []float64{1, 2, 3, 4, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Sum() != 110 {
		t.Fatalf("Sum = %v", h.Sum())
	}
	if h.Mean() != 22 {
		t.Fatalf("Mean = %v", h.Mean())
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Fatalf("Min/Max = %v/%v", h.Min(), h.Max())
	}
	if h.Quantile(0) != 1 || h.Quantile(1) != 100 {
		t.Fatal("extreme quantiles should be exact min/max")
	}
	if h.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram("empty")
	if h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	h := NewHistogram("q")
	g := NewRNG(11)
	for i := 0; i < 100000; i++ {
		h.Observe(g.Float64() * 1000)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		got := h.Quantile(q)
		want := q * 1000
		if math.Abs(got-want)/want > 0.15 {
			t.Errorf("Quantile(%v) = %.1f, want within 15%% of %.1f", q, got, want)
		}
	}
}

// Property: quantiles are monotone in q and bounded by [min, max].
func TestHistogramQuantileMonotoneProperty(t *testing.T) {
	f := func(samples []float64) bool {
		h := NewHistogram("p")
		any := false
		for _, s := range samples {
			v := math.Abs(s)
			if math.IsInf(v, 0) || math.IsNaN(v) {
				continue
			}
			h.Observe(v)
			any = true
		}
		if !any {
			return true
		}
		prev := h.Quantile(0)
		for q := 0.0; q <= 1.0; q += 0.05 {
			cur := h.Quantile(q)
			if cur < prev || cur < h.Min() || cur > h.Max() {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCoV(t *testing.T) {
	if got := CoV([]int64{5, 5, 5, 5}); got != 0 {
		t.Errorf("CoV of equal values = %v, want 0", got)
	}
	if got := CoV(nil); got != 0 {
		t.Errorf("CoV(nil) = %v, want 0", got)
	}
	if got := CoV([]int64{0, 0, 0}); got != 0 {
		t.Errorf("CoV of zeros = %v, want 0", got)
	}
	skewed := CoV([]int64{0, 0, 0, 100})
	even := CoV([]int64{24, 25, 26, 25})
	if skewed <= even {
		t.Errorf("CoV skewed=%v should exceed even=%v", skewed, even)
	}
}

func TestMaxInt64(t *testing.T) {
	if MaxInt64(nil) != 0 {
		t.Error("MaxInt64(nil) != 0")
	}
	if MaxInt64([]int64{3, 9, 1}) != 9 {
		t.Error("MaxInt64 wrong")
	}
}

func TestEnergyAccounting(t *testing.T) {
	m := NewEnergyMeter()
	m.Charge("flash", 2*Millijoule)
	m.Charge("dram", Millijoule)
	m.Charge("flash", Millijoule)
	if m.Total() != 4*Millijoule {
		t.Fatalf("Total = %v", m.Total())
	}
	if m.Category("flash") != 3*Millijoule {
		t.Fatalf("flash = %v", m.Category("flash"))
	}
}

// TestEnergyAccount holds charges through resolved accounts to Charge by
// category: the same totals and the same clamping of a negative charge.
func TestEnergyAccount(t *testing.T) {
	byName, byAccount := NewEnergyMeter(), NewEnergyMeter()
	accounts := map[string]*EnergyAccount{
		"flash": byAccount.Account("flash"),
		"dram":  byAccount.Account("dram"),
	}
	if byAccount.Account("flash") != accounts["flash"] {
		t.Fatal("Account resolved one category to two accounts")
	}
	for _, c := range []struct {
		cat string
		e   Energy
	}{{"flash", 2 * Millijoule}, {"dram", Millijoule}, {"flash", -Nanojoule}, {"flash", Millijoule}, {"dram", 0}} {
		byName.Charge(c.cat, c.e)
		accounts[c.cat].Charge(c.e)
	}
	for _, m := range []*EnergyMeter{byName, byAccount} {
		if m.Total() != 4*Millijoule || m.Category("flash") != 3*Millijoule || m.Category("dram") != Millijoule {
			t.Fatalf("total %v, flash %v, dram %v; want 4, 3 and 1 mJ", m.Total(), m.Category("flash"), m.Category("dram"))
		}
		if m.DroppedNegativeCharges() != 1 {
			t.Fatalf("dropped %d negative charges, want 1", m.DroppedNegativeCharges())
		}
	}
	var none *EnergyMeter
	if none.Account("flash") != nil {
		t.Fatal("a nil meter returned an account")
	}
}

// TestEnergyAccountAllocFree: charging, through an account or by a
// category already charged, allocates nothing.
func TestEnergyAccountAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	m := NewEnergyMeter()
	a := m.Account("flash")
	m.Charge("dram", 0)
	if allocs := testing.AllocsPerRun(1000, func() {
		a.Charge(Nanojoule)
		a.Charge(-Nanojoule)
		m.Charge("dram", Nanojoule)
	}); allocs != 0 {
		t.Fatalf("charging allocated %.1f times per run", allocs)
	}
}

func TestEnergyFor(t *testing.T) {
	// 1000 mW (1 W) for 1 second = 1 joule.
	if got := EnergyFor(1000, Second); got != Joule {
		t.Fatalf("EnergyFor(1W, 1s) = %v, want 1 J", got)
	}
	// 1 mW for 1 ns = 1 pJ.
	if got := EnergyFor(1, Nanosecond); got != Picojoule {
		t.Fatalf("EnergyFor(1mW, 1ns) = %v pJ, want 1", int64(got))
	}
}

func TestEnergyString(t *testing.T) {
	cases := map[Energy]string{
		2 * Joule:      "2.000 J",
		3 * Millijoule: "3.000 mJ",
		4 * Microjoule: "4.000 uJ",
		5 * Nanojoule:  "5.000 nJ",
	}
	for e, want := range cases {
		if got := e.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int64(e), got, want)
		}
	}
}

func TestNegativeChargeClampedAndCounted(t *testing.T) {
	m := NewEnergyMeter()
	m.Charge("x", 5)
	m.Charge("x", -1)
	m.Charge("y", -100*Joule)
	if got := m.Total(); got != 5 {
		t.Errorf("Total() = %v after negative charges, want 5 (clamped)", got)
	}
	if got := m.Category("x"); got != 5 {
		t.Errorf("Category(x) = %v, want 5", got)
	}
	if got := m.DroppedNegativeCharges(); got != 2 {
		t.Errorf("DroppedNegativeCharges() = %d, want 2", got)
	}
}

func TestHistogramQuantileEmpty(t *testing.T) {
	h := NewHistogram("empty")
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0 || math.IsNaN(got) {
			t.Errorf("empty Quantile(%g) = %v, want 0", q, got)
		}
	}
	if got := h.Mean(); got != 0 {
		t.Errorf("empty Mean() = %v, want 0", got)
	}
}

func TestHistogramQuantileSingleSample(t *testing.T) {
	for _, v := range []float64{0, 1, 3.5, 1e9} {
		h := NewHistogram("single")
		h.Observe(v)
		for _, q := range []float64{0, 0.5, 0.99, 1} {
			got := h.Quantile(q)
			if math.IsNaN(got) {
				t.Fatalf("single-sample Quantile(%g) is NaN for sample %g", q, v)
			}
			if got != v {
				t.Errorf("single-sample Quantile(%g) = %v, want the sample %g", q, got, v)
			}
		}
	}
}
