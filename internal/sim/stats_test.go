package sim

import (
	"math"
	"sort"
	"testing"
)

// mapHistogram is the histogram as it was kept before its buckets went
// dense: a map from bucket index to count, its keys sorted on every
// quantile. A sample <= 0 had the key math.MinInt32, whose upper bound
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
		b = histBucket(v)
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
