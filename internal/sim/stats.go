package sim

import (
	"fmt"
	"math"
)

// Histogram collects scalar samples (latencies, sizes) into logarithmic
// buckets and tracks exact count, sum, min and max. Percentiles are
// estimated from the bucket boundaries; with the default 8 sub-buckets per
// power of two the relative error is below 10%, which is ample for the
// latency-shape comparisons the experiments make.
//
// The buckets are one dense array: counts[i] holds bucket lo+i, and the
// array grows on demand to cover every bucket observed. Samples that are
// not positive finite numbers — zero, negatives, NaN, +Inf — share one
// zero bucket whose upper bound is 0.
type Histogram struct {
	Name   string
	count  int64
	sum    float64
	min    float64
	max    float64
	zero   int64
	lo     int
	counts []int64
}

// NewHistogram returns an empty histogram labelled name.
func NewHistogram(name string) *Histogram {
	return &Histogram{Name: name, min: math.Inf(1), max: math.Inf(-1)}
}

const histSubBuckets = 8

// histBucketLog is the bucket of a positive finite sample by definition:
// floor(log2(v)·8). histBucket finds the same index without the
// logarithm for samples in [1, 2^63) and calls this everywhere else.
func histBucketLog(v float64) int {
	return int(math.Floor(math.Log2(v) * histSubBuckets))
}

// histTableExps is the number of binary exponents histThresholds covers:
// samples in [1, 2^63).
const histTableExps = 63

// histThresholds[e][k] is the smallest v whose histBucketLog is at least
// 8e+k+1. The 8 thresholds of an exponent split [2^e, 2^(e+1)) into its
// sub-buckets; the last is 2^(e+1) itself, or a few ulps below it from
// e=2 on, where log2 rounds up to e+1 and the top of the range already
// falls in the next exponent's first bucket.
var histThresholds = buildHistThresholds()

// buildHistThresholds derives every threshold from histBucketLog itself,
// so histBucket matches the formula bit for bit. Each search starts from
// the previous exponent's threshold doubled (exponent 0's from the exact
// power of two), which lands within a few ulps, so the whole table costs
// about 50 µs.
func buildHistThresholds() *[histTableExps][histSubBuckets]float64 {
	t := new([histTableExps][histSubBuckets]float64)
	for e := range t {
		for k := range t[e] {
			target := e*histSubBuckets + k + 1
			guess := math.Exp2(float64(target) / histSubBuckets)
			if e > 0 {
				guess = 2 * t[e-1][k]
			}
			t[e][k] = firstInBucket(guess, target)
		}
	}
	return t
}

// firstInBucket returns the smallest positive float64 whose histBucketLog
// is at least target, galloping out from guess in doubling ulp steps and
// then bisecting: positive floats order as their bit patterns do, and the
// bucket never decreases as v grows.
func firstInBucket(guess float64, target int) float64 {
	reaches := func(bits uint64) bool { return histBucketLog(math.Float64frombits(bits)) >= target }
	g := math.Float64bits(guess)
	lo, hi := g, g // !reaches(lo), reaches(hi) once the gallop stops
	if reaches(g) {
		for d := uint64(1); ; d *= 2 {
			if lo = g - d; !reaches(lo) {
				break
			}
			hi = lo
		}
	} else {
		for d := uint64(1); ; d *= 2 {
			if hi = g + d; reaches(hi) {
				break
			}
			lo = hi
		}
	}
	for hi-lo > 1 {
		if m := lo + (hi-lo)/2; reaches(m) {
			hi = m
		} else {
			lo = m
		}
	}
	return math.Float64frombits(hi)
}

// histBucket is the bucket of a positive finite sample, histBucketLog's
// index found by comparisons: the exponent bits pick a row of
// histThresholds, and the sub-bucket is how many of its thresholds v
// reaches (a three-step search over the first seven, then the last).
func histBucket(v float64) int {
	e := int(math.Float64bits(v)>>52) - 1023
	if uint(e) >= histTableExps {
		return histBucketLog(v)
	}
	t := &histThresholds[e]
	k := 0
	if v >= t[3] {
		k = 4
	}
	if v >= t[k+1] {
		k += 2
	}
	if v >= t[k] {
		k++
	}
	if v >= t[7] {
		k++
	}
	return e*histSubBuckets + k
}

// histBucketUpper is a bucket's upper bound.
func histBucketUpper(b int) float64 {
	return math.Exp2(float64(b+1) / histSubBuckets)
}

// cover widens counts to hold buckets [lo, hi). A side that has to grow
// grows by the array's current length as well, so a series whose range
// drifts reallocates a logarithmic number of times.
func (h *Histogram) cover(lo, hi int) {
	if len(h.counts) == 0 {
		h.lo, h.counts = lo, make([]int64, hi-lo)
		return
	}
	nlo, nhi := h.lo, h.lo+len(h.counts)
	if lo >= nlo && hi <= nhi {
		return
	}
	if lo < nlo {
		nlo = lo - len(h.counts)
	}
	if hi > nhi {
		nhi = hi + len(h.counts)
	}
	counts := make([]int64, nhi-nlo)
	copy(counts[h.lo-nlo:], h.counts)
	h.lo, h.counts = nlo, counts
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	if !(v > 0 && v <= math.MaxFloat64) {
		h.zero++
		return
	}
	b := histBucket(v)
	if b < h.lo || b >= h.lo+len(h.counts) {
		h.cover(b, b+1)
	}
	h.counts[b-h.lo]++
}

// ObserveDuration records a latency sample in nanoseconds.
func (h *Histogram) ObserveDuration(d Duration) { h.Observe(float64(d)) }

// Count reports the number of samples.
func (h *Histogram) Count() int64 { return h.count }

// Sum reports the sum of all samples.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean reports the sample mean, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min reports the smallest sample, or 0 with no samples.
func (h *Histogram) Min() float64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max reports the largest sample, or 0 with no samples.
func (h *Histogram) Max() float64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Merge folds every sample recorded in src into h, as if each had been
// Observed here. The parallel experiment engine uses it to combine
// per-job histograms into the run-wide aggregate; merging preserves
// count, sum, min, max and the bucket shape exactly, so quantile
// estimates equal those of a single histogram fed the union of samples.
func (h *Histogram) Merge(src *Histogram) {
	if src == nil || src.count == 0 {
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
	h.zero += src.zero
	if len(src.counts) == 0 {
		return
	}
	h.cover(src.lo, src.lo+len(src.counts))
	for i, n := range src.counts {
		h.counts[src.lo-h.lo+i] += n
	}
}

// Quantile estimates the q-th quantile (q in [0,1]) from the buckets. The
// exact min and max are returned for q=0 and q=1. An empty histogram
// reports 0 and a single-sample histogram reports that sample exactly —
// never NaN — so downstream tables stay printable.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if h.count == 1 {
		return h.min
	}
	if q <= 0 {
		return h.Min()
	}
	if q >= 1 {
		return h.Max()
	}
	target := int64(math.Ceil(q * float64(h.count)))
	// target <= count, so the walk always ends on the bucket holding it.
	cum, i := h.zero, 0
	for ; cum < target; i++ {
		cum += h.counts[i]
	}
	u := 0.0 // the zero bucket's upper bound
	if i > 0 {
		u = histBucketUpper(h.lo + i - 1)
	}
	if u > h.max {
		u = h.max
	}
	return u
}

// String summarises the histogram.
func (h *Histogram) String() string {
	return fmt.Sprintf("%s: n=%d mean=%.1f p50=%.1f p99=%.1f max=%.1f",
		h.Name, h.count, h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.Max())
}

// CoV computes the coefficient of variation (stddev/mean) of vs. It is the
// wear-evenness metric for the wear-leveling experiments: 0 means perfectly
// even erase counts.
func CoV(vs []int64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += float64(v)
	}
	mean := sum / float64(len(vs))
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, v := range vs {
		d := float64(v) - mean
		ss += d * d
	}
	return math.Sqrt(ss/float64(len(vs))) / mean
}

// MaxInt64 returns the largest element of vs, or 0 when empty.
func MaxInt64(vs []int64) int64 {
	var m int64
	for _, v := range vs {
		if v > m {
			m = v
		}
	}
	return m
}
