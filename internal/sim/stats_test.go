package sim

import (
	"math"
	"sort"
	"testing"
)

// mapHistogram is the histogram as it was kept before its buckets went
// dense: a map from bucket index to count, its keys sorted on every
// quantile, and each bucket found by the logarithm. A sample <= 0 had the key math.MinInt32, whose upper bound
// was 0. On amd64 the bucket arithmetic gave NaN and +Inf the key
// math.MinInt64; the reference writes that key out so it means the same
// on every platform.
type mapHistogram struct {
	count    int64
	sum      float64
	min, max float64
	buckets  map[int]int64
}

func newMapHistogram() *mapHistogram {
	return &mapHistogram{min: math.Inf(1), max: math.Inf(-1), buckets: make(map[int]int64)}
}

func (h *mapHistogram) observe(v float64) {
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	var b int
	switch {
	case math.IsNaN(v) || math.IsInf(v, 1):
		b = math.MinInt64
	case v <= 0:
		b = math.MinInt32
	default:
		b = histBucketLog(v)
	}
	h.buckets[b]++
}

func (h *mapHistogram) merge(src *mapHistogram) {
	if src.count == 0 {
		return
	}
	h.count += src.count
	h.sum += src.sum
	if src.min < h.min {
		h.min = src.min
	}
	if src.max > h.max {
		h.max = src.max
	}
	for b, n := range src.buckets {
		h.buckets[b] += n
	}
}

func (h *mapHistogram) quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if h.count == 1 || q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	keys := make([]int, 0, len(h.buckets))
	for k := range h.buckets {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	target := int64(math.Ceil(q * float64(h.count)))
	var cum int64
	for _, k := range keys {
		cum += h.buckets[k]
		if cum >= target {
			u := histBucketUpper(k)
			if k == math.MinInt32 {
				u = 0
			}
			if u > h.max {
				u = h.max
			}
			return u
		}
	}
	return h.max
}

// histSamples draws n seeded samples covering every kind of input: zero,
// negatives, values below 1, integer nanosecond latencies, values up to
// 2^62 and, when nonFinite is set, NaN, +Inf and -Inf.
func histSamples(seed int64, n int, nonFinite bool) []float64 {
	g := NewRNG(seed)
	kinds := 6
	if nonFinite {
		kinds = 9
	}
	out := make([]float64, n)
	for i := range out {
		switch g.Intn(kinds) {
		case 0:
			out[i] = 0
		case 1:
			out[i] = -g.Float64() * 1e6
		case 2:
			out[i] = g.Float64()
		case 3:
			out[i] = float64(g.Int63n(10_000_000_000))
		case 4, 5:
			out[i] = math.Exp2(g.Float64() * 62)
		case 6:
			out[i] = math.NaN()
		case 7:
			out[i] = math.Inf(1)
		case 8:
			out[i] = math.Inf(-1)
		}
	}
	return out
}

var histQGrid = []float64{-0.5, 0, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1, 1.5}

// sameFloat compares bit patterns, so NaN sums compare equal to NaN sums.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func requireSameHistogram(t *testing.T, what string, got *Histogram, want *mapHistogram) {
	t.Helper()
	wantMin, wantMax := want.min, want.max
	if want.count == 0 {
		wantMin, wantMax = 0, 0
	}
	if got.Count() != want.count || !sameFloat(got.Sum(), want.sum) ||
		!sameFloat(got.Min(), wantMin) || !sameFloat(got.Max(), wantMax) {
		t.Fatalf("%s: count/sum/min/max %d/%v/%v/%v, map reference %d/%v/%v/%v", what,
			got.Count(), got.Sum(), got.Min(), got.Max(), want.count, want.sum, wantMin, wantMax)
	}
	for _, q := range histQGrid {
		if g, w := got.Quantile(q), want.quantile(q); !sameFloat(g, w) {
			t.Fatalf("%s: Quantile(%g) = %v, map reference %v", what, q, g, w)
		}
	}
}

func TestHistogramDenseEqualsMap(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		for _, n := range []int{1, 2, 7, 500} {
			for _, nonFinite := range []bool{false, true} {
				h, ref := NewHistogram("dense"), newMapHistogram()
				for _, v := range histSamples(seed, n, nonFinite) {
					h.Observe(v)
					ref.observe(v)
				}
				requireSameHistogram(t, "observe", h, ref)
			}
		}
	}
}

func TestHistogramDenseMergeEqualsMap(t *testing.T) {
	build := func(samples []float64) (*Histogram, *mapHistogram) {
		h, ref := NewHistogram("dense"), newMapHistogram()
		for _, v := range samples {
			h.Observe(v)
			ref.observe(v)
		}
		return h, ref
	}
	for seed := int64(1); seed <= 40; seed++ {
		nonFinite := seed%2 == 0
		a := histSamples(seed, 300, nonFinite)
		// b is shorter than a and, every third seed, holds only samples
		// >= 1, so the two arrays cover different ranges and a merge
		// grows its destination downwards, upwards or not at all.
		b := histSamples(seed+1000, 1+int(seed)*7, nonFinite)
		if seed%3 == 0 {
			for i := range b {
				b[i] = math.Abs(b[i]) + 1
			}
		}
		for _, order := range []string{"a<-b", "b<-a"} {
			dst, dstRef := build(a)
			src, srcRef := build(b)
			if order == "b<-a" {
				dst, dstRef, src, srcRef = src, srcRef, dst, dstRef
			}
			dst.Merge(src)
			dstRef.merge(srcRef)
			requireSameHistogram(t, order, dst, dstRef)
			requireSameHistogram(t, order+" source after merge", src, srcRef)
		}
		empty, emptyRef := build(nil)
		src, srcRef := build(a)
		empty.Merge(src)
		emptyRef.merge(srcRef)
		requireSameHistogram(t, "into empty", empty, emptyRef)
		src.Merge(NewHistogram("empty"))
		src.Merge(nil)
		requireSameHistogram(t, "empty into full", src, srcRef)
	}
}

func TestHistogramDenseAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	h := NewHistogram("lat")
	// The first samples at the range's two ends grow the bucket array;
	// every sample between them lands in place.
	h.Observe(1)
	h.Observe(9e9)
	if a := testing.AllocsPerRun(1000, func() {
		h.Observe(1234)
		h.Observe(5e6)
		h.Observe(0)
		h.Observe(math.NaN())
	}); a != 0 {
		t.Fatalf("Observe inside the grown range allocated %.1f per run", a)
	}
	if a := testing.AllocsPerRun(1000, func() {
		h.Quantile(0.5)
		h.Quantile(0.99)
	}); a != 0 {
		t.Fatalf("Quantile allocated %.1f per run", a)
	}
}

// ulpsFrom steps n ulps from v (n < 0 toward zero).
func ulpsFrom(v float64, n int) float64 {
	return math.Float64frombits(uint64(int64(math.Float64bits(v)) + int64(n)))
}

// TestHistBucketMatchesLog2 holds the comparison bucket to the formula it
// replaces: around every table threshold and every power of two in the
// table's range to ±4 ulps, and on a seeded sweep of integers and
// fractions across all 63 exponents plus every input the table leaves to
// the formula (zero, values below 1 and subnormal, 2^63 and above, NaN,
// ±Inf and negatives).
func TestHistBucketMatchesLog2(t *testing.T) {
	check := func(v float64) {
		if got, want := histBucket(v), histBucketLog(v); got != want {
			t.Fatalf("histBucket(%v) [bits %#x] = %d, floor(log2·8) = %d", v, math.Float64bits(v), got, want)
		}
	}
	for e := range histThresholds {
		for d := -4; d <= 4; d++ {
			check(ulpsFrom(math.Ldexp(1, e), d))
			for _, th := range histThresholds[e] {
				check(ulpsFrom(th, d))
			}
		}
	}
	for _, v := range []float64{0, math.Copysign(0, -1), -1, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		0x1p-1022, 0.5, ulpsFrom(1, -1), 0x1p63, ulpsFrom(0x1p63, 1), 0x1p64, 1e300, math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1)} {
		check(v)
	}
	g := NewRNG(39)
	const sweep = 1 << 20
	for i := 0; i < sweep; i++ {
		e := i % histTableExps
		switch i / histTableExps % 4 {
		case 0: // an integer in [2^e, 2^(e+1))
			check(float64(int64(1)<<e + g.Int63n(int64(1)<<e)))
		case 1: // a fraction in the same range
			check(math.Ldexp(1+g.Float64(), e))
		case 2: // below 1, down through the subnormals
			check(math.Ldexp(1+g.Float64(), -1-g.Intn(1074)))
		case 3: // 2^63 and above
			check(math.Ldexp(1+g.Float64(), 63+g.Intn(961)))
		}
	}
}

// BenchmarkBuildHistThresholds is what the bucket table costs a process
// at start.
func BenchmarkBuildHistThresholds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		buildHistThresholds()
	}
}
