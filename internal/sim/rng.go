package sim

import (
	"math"
	"math/rand"
)

// RNG is a seeded, deterministic random-number stream with the
// distributions the workload generators need. Two RNGs constructed with the
// same seed produce identical streams, which keeps every experiment in this
// repository reproducible run-to-run.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a stream seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Fork derives an independent stream from this one. Forked streams let
// separate model components (file sizes, lifetimes, addresses) consume
// randomness without perturbing each other when one component's draw count
// changes.
func (g *RNG) Fork() *RNG { return NewRNG(g.r.Int63()) }

// Intn returns a uniform integer in [0, n). n must be > 0.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63n returns a uniform int64 in [0, n). n must be > 0.
func (g *RNG) Int63n(n int64) int64 { return g.r.Int63n(n) }

// Float64 returns a uniform float in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool { return g.r.Float64() < p }

// Exp returns an exponentially distributed value with the given mean.
func (g *RNG) Exp(mean float64) float64 { return g.r.ExpFloat64() * mean }

// LogNormal returns a log-normally distributed value where mu and sigma are
// the parameters of the underlying normal (so the median is e^mu).
func (g *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(g.r.NormFloat64()*sigma + mu)
}

// Zipf returns a generator of Zipf-distributed values in [0, n) with
// exponent s > 1 being more skewed as s grows. The hottest value is 0.
func (g *RNG) Zipf(s float64, n uint64) *Zipf {
	if s <= 1 {
		s = 1.0000001
	}
	return &Zipf{z: rand.NewZipf(g.r, s, 1, n-1)}
}

// Zipf draws from a fixed Zipf distribution.
type Zipf struct {
	z *rand.Zipf
}

// Next returns the next draw.
func (z *Zipf) Next() uint64 { return z.z.Uint64() }
