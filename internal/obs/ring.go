package obs

import "ssmobile/internal/sim"

// ringChunk is the granularity of a ring's backing store. A ring grows
// chunk by chunk instead of append-doubling: recording n items allocates
// ceil(n/ringChunk) fixed-size chunks and never moves or re-zeroes items
// already recorded. With a 64k-span tracer the doubling strategy zeroed
// and copied ~20 MB per full fill — which was most of the measurable cost
// of *enabled* tracing on the serve path.
const ringChunk = 1 << 13

// ring is a bounded buffer that overwrites its oldest item when full. It
// grows on demand up to its capacity, so a short-lived ring (the parallel
// engine makes a tracer per job) costs only what it records. It takes no
// lock: the span Tracer has one writer, and the EventLog holds its own
// mutex around every call.
type ring[T any] struct {
	chunks   [][]T // backing store; only the last chunk may be short
	capacity int
	length   int   // items retained; grows to capacity, then stops
	next     int   // index the next item overwrites once full
	total    int64 // items ever recorded
}

// slot claims the slot the next item is written into, growing the ring
// by a chunk or overwriting its oldest item.
func (r *ring[T]) slot() *T {
	i := r.next
	if r.length < r.capacity {
		i = r.length
		if i == len(r.chunks)*ringChunk {
			r.chunks = append(r.chunks, make([]T, min(ringChunk, r.capacity-i)))
		}
		r.length++
	} else {
		r.next = (r.next + 1) % r.capacity
	}
	r.total++
	return &r.chunks[i/ringChunk][i%ringChunk]
}

// items returns the retained items, oldest first. While the ring is
// filling next is 0, so this copies slots 0..length; once full the
// oldest item sits at next and the range wraps.
func (r *ring[T]) items() []T {
	out := make([]T, 0, r.length)
	out = r.appendRange(out, r.next, r.length)
	return r.appendRange(out, 0, r.next)
}

// appendRange copies slots [from, to) to out, a chunk run at a time.
func (r *ring[T]) appendRange(out []T, from, to int) []T {
	for from < to {
		c := r.chunks[from/ringChunk]
		off := from % ringChunk
		n := min(len(c)-off, to-from)
		out = append(out, c[off:off+n]...)
		from += n
	}
	return out
}

// dropped reports how many items the ring has overwritten.
func (r *ring[T]) dropped() int64 { return r.total - int64(r.length) }

// merge re-records src's retained items into r, oldest first, and
// carries src's drop count over, so r reports the union's totals. The
// parallel experiment engine merges per-job rings in job order, which
// keeps the retained sequence identical however the jobs were scheduled.
func (r *ring[T]) merge(src *ring[T]) {
	dropped := src.dropped()
	for _, it := range src.items() {
		*r.slot() = it
	}
	r.total += dropped
}

// RateSampler turns a cumulative counter into a windowed rate using a
// bounded ring of (virtual time, value) samples.
//
// The registry's counters are cumulative-only: perfect for totals,
// useless for "how fast is the device burning erase cycles RIGHT NOW".
// A layer that owns a counter calls Observe(now, cumulative) at every
// increment; Rate(now) then reports the increase per virtual second over
// the trailing window. Because Observe is called exactly when the
// counter steps, the cumulative value at any instant t is the value of
// the last sample at or before t, and the windowed rate is exact as long
// as the ring still holds a sample at or before the window's left edge.
// A full ring evicts oldest-first, which can only under-report the rate
// (the evicted increments fall out of the numerator); size the capacity
// to the expected increments per window to avoid that.
//
// The sampler is deliberately allocation-free after construction — it
// sits on the flash program/erase path, which every experiment pays —
// and is not safe for concurrent use: like sim.Clock it belongs to the
// single simulation thread. Export a rate through a GaugeFunc for scrape
// paths; gauge collection reads a point-in-time value under the
// registry's locking.
type RateSampler struct {
	window sim.Duration
	ring   []rateSample
	head   int // index of the next slot to write
	n      int // number of valid samples
}

type rateSample struct {
	t sim.Time
	v int64
}

// NewRateSampler returns a sampler holding up to capacity samples
// (<=0 selects 256) over the given window (<=0 selects one minute of
// virtual time).
func NewRateSampler(capacity int, window sim.Duration) *RateSampler {
	if capacity <= 0 {
		capacity = 256
	}
	if window <= 0 {
		window = sim.Minute
	}
	return &RateSampler{window: window, ring: make([]rateSample, capacity)}
}

// Len reports the number of retained samples.
func (s *RateSampler) Len() int { return s.n }

// Observe records the counter's cumulative value at virtual time now.
// Virtual time is monotone, so a sample earlier than the newest one is
// dropped; a sample at the same instant replaces the newest (the counter
// stepped twice in zero time — only the final value matters). Nil-safe.
func (s *RateSampler) Observe(now sim.Time, cum int64) {
	if s == nil {
		return
	}
	if s.n > 0 {
		last := (s.head - 1 + len(s.ring)) % len(s.ring)
		if now < s.ring[last].t {
			return
		}
		if now == s.ring[last].t {
			s.ring[last].v = cum
			return
		}
	}
	s.ring[s.head] = rateSample{t: now, v: cum}
	s.head = (s.head + 1) % len(s.ring)
	if s.n < len(s.ring) {
		s.n++
	}
}

// Rate reports the counter's increase per virtual second over the
// trailing window ending at now: (value at now − value at now−window)
// ÷ window. Before one full window has elapsed the divisor is now
// itself, so early rates are not diluted by time that never existed.
// With no samples, or none inside the window, the rate is zero. Nil-safe.
func (s *RateSampler) Rate(now sim.Time) float64 {
	if s == nil || s.n == 0 {
		return 0
	}
	span := s.window
	if sim.Duration(now) < span {
		span = sim.Duration(now)
	}
	if span <= 0 {
		return 0
	}
	cutoff := now.Add(-span)
	// Oldest retained sample is at head-n; scan forward for the last
	// sample at or before the cutoff (the counter's value at the window's
	// left edge) and the newest sample overall (its value at now).
	oldest := (s.head - s.n + len(s.ring)*2) % len(s.ring)
	base := int64(0)
	baseSeen := false
	var newest int64
	for i := 0; i < s.n; i++ {
		sm := s.ring[(oldest+i)%len(s.ring)]
		if sm.t <= cutoff {
			base = sm.v
			baseSeen = true
		}
		newest = sm.v
	}
	if !baseSeen {
		// The window's left edge predates every retained sample: either
		// the device is young (value was 0 at the cutoff) or the ring
		// evicted the baseline (under-report, bounded by capacity).
		base = s.ring[oldest].v
		if sim.Duration(now) <= s.window {
			base = 0
		}
	}
	if newest <= base {
		return 0
	}
	return float64(newest-base) / span.Seconds()
}
