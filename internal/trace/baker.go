package trace

import (
	"container/heap"
	"fmt"
	"math"

	"ssmobile/internal/sim"
)

// BakerConfig parameterises the Sprite-like office/engineering workload.
// The calibration below is fixed to the published distributions: small
// log-normal file sizes, a majority of files short-lived, writes
// concentrated on a hot set. With DefaultBaker's hot set a 1 MB write
// buffer and 30-second write-back delay absorb 40-50% of write traffic,
// the figure the paper quotes from Baker et al.
type BakerConfig struct {
	// Duration is the span of activity to generate.
	Duration sim.Duration
	// OverwriteFrac is the fraction of non-read operations that rewrite a
	// block of an existing file rather than create a new file.
	OverwriteFrac float64
	// HotSkew is the Zipf exponent used to pick overwrite and read victims
	// among recently written files (larger = hotter hot set).
	HotSkew float64
	// Seed makes the trace reproducible.
	Seed int64
}

// The office workload's calibration.
const (
	// bakerMeanInterarrival is the exponential mean between operations.
	bakerMeanInterarrival = 50 * sim.Millisecond
	// bakerFileSizeMedian and bakerFileSizeSigma parameterise the
	// log-normal file size distribution (sigma is in log space).
	bakerFileSizeMedian = 4 * 1024
	bakerFileSizeSigma  = 1.2
	// bakerMaxFileSize truncates the heavy tail so single files cannot
	// exceed the simulated devices.
	bakerMaxFileSize = 256 * 1024
	// bakerShortLivedFrac is the fraction of created files that die young.
	bakerShortLivedFrac = 0.5
	// bakerShortLifetimeMean and bakerLongLifetimeMean are exponential
	// means for the two lifetime classes.
	bakerShortLifetimeMean = 20 * sim.Second
	bakerLongLifetimeMean  = 2 * sim.Hour
	// bakerReadFrac is the fraction of operations that are reads.
	bakerReadFrac = 0.55
	// bakerBlockSize is the granularity of overwrite and read operations.
	bakerBlockSize = 4 * 1024
)

// DefaultBaker returns the configuration used by the experiments,
// covering the given span.
func DefaultBaker(d sim.Duration, seed int64) BakerConfig {
	return BakerConfig{Duration: d, OverwriteFrac: 0.4, HotSkew: 1.3, Seed: seed}
}

// Validate checks the configuration for usability.
func (c BakerConfig) Validate() error {
	if c.Duration <= 0 {
		return fmt.Errorf("trace: non-positive duration")
	}
	if c.OverwriteFrac < 0 || c.OverwriteFrac > 1 {
		return fmt.Errorf("trace: fractions must be in [0,1]")
	}
	return nil
}

// pendingDelete schedules the end of a short- or long-lived file.
type pendingDelete struct {
	at   sim.Time
	file FileID
}

type deleteHeap []pendingDelete

func (h deleteHeap) Len() int           { return len(h) }
func (h deleteHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h deleteHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *deleteHeap) Push(x any)        { *h = append(*h, x.(pendingDelete)) }
func (h *deleteHeap) Pop() any {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}

// liveSet tracks live files in most-recently-written order so victims can
// be Zipf-selected toward the hot end.
type liveSet struct {
	order []FileID       // most recent last
	size  map[FileID]int // live file sizes
	pos   map[FileID]int // index in order
}

func newLiveSet() *liveSet {
	return &liveSet{size: make(map[FileID]int), pos: make(map[FileID]int)}
}

func (s *liveSet) add(f FileID, size int) {
	s.size[f] = size
	s.pos[f] = len(s.order)
	s.order = append(s.order, f)
}

func (s *liveSet) touch(f FileID) {
	i, ok := s.pos[f]
	if !ok || i == len(s.order)-1 {
		return
	}
	// Swap toward the hot end rather than shifting the whole slice; an
	// approximate MRU order is all the selection needs.
	j := len(s.order) - 1
	s.order[i], s.order[j] = s.order[j], s.order[i]
	s.pos[s.order[i]] = i
	s.pos[s.order[j]] = j
}

func (s *liveSet) remove(f FileID) {
	i, ok := s.pos[f]
	if !ok {
		return
	}
	j := len(s.order) - 1
	s.order[i] = s.order[j]
	s.pos[s.order[i]] = i
	s.order = s.order[:j]
	delete(s.pos, f)
	delete(s.size, f)
}

func (s *liveSet) len() int { return len(s.order) }

// pickHot selects a live file, biased toward recently written ones.
func (s *liveSet) pickHot(g *sim.RNG, skew float64) (FileID, int) {
	n := len(s.order)
	// A Zipf draw over recency rank: rank 0 = most recent.
	rank := int(g.Zipf(skew, uint64(n)).Next())
	f := s.order[n-1-rank]
	return f, s.size[f]
}

// GenerateBaker synthesises a trace from the configuration.
func GenerateBaker(cfg BakerConfig) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := sim.NewRNG(cfg.Seed)
	sizes := g.Fork()
	lifetimes := g.Fork()
	choices := g.Fork()
	victims := g.Fork()

	var t Trace
	live := newLiveSet()
	var deletes deleteHeap
	nextID := FileID(1)
	now := sim.Time(0)
	end := sim.Time(cfg.Duration)

	mu := math.Log(float64(bakerFileSizeMedian))

	emitDeletesThrough := func(now sim.Time) {
		for deletes.Len() > 0 && deletes[0].at <= now {
			d := heap.Pop(&deletes).(pendingDelete)
			if _, ok := live.pos[d.file]; !ok {
				continue
			}
			live.remove(d.file)
			t.Ops = append(t.Ops, Op{Time: d.at, Kind: Delete, File: d.file})
		}
	}

	for {
		now = now.Add(sim.Duration(choices.Exp(float64(bakerMeanInterarrival))))
		if now > end {
			break
		}
		emitDeletesThrough(now)

		switch {
		case choices.Float64() < bakerReadFrac && live.len() > 0:
			f, size := live.pickHot(victims, cfg.HotSkew)
			n := bakerBlockSize
			if n > size {
				n = size
			}
			var off int64
			if size > n {
				off = victims.Int63n(int64(size-n)+1) / bakerBlockSize * bakerBlockSize
			}
			t.Ops = append(t.Ops, Op{Time: now, Kind: Read, File: f, Offset: off, Size: n})

		case choices.Float64() < cfg.OverwriteFrac && live.len() > 0:
			f, size := live.pickHot(victims, cfg.HotSkew)
			n := bakerBlockSize
			if n > size {
				n = size
			}
			var off int64
			if size > n {
				off = victims.Int63n(int64(size-n)+1) / bakerBlockSize * bakerBlockSize
			}
			live.touch(f)
			t.Ops = append(t.Ops, Op{Time: now, Kind: Write, File: f, Offset: off, Size: n})

		default:
			size := int(sizes.LogNormal(mu, bakerFileSizeSigma))
			if size < 1 {
				size = 1
			}
			if size > bakerMaxFileSize {
				size = bakerMaxFileSize
			}
			f := nextID
			nextID++
			live.add(f, size)
			t.Ops = append(t.Ops, Op{Time: now, Kind: Create, File: f, Size: size})
			t.Ops = append(t.Ops, Op{Time: now, Kind: Write, File: f, Offset: 0, Size: size})

			var life sim.Duration
			if lifetimes.Bool(bakerShortLivedFrac) {
				life = sim.Duration(lifetimes.Exp(float64(bakerShortLifetimeMean)))
			} else {
				life = sim.Duration(lifetimes.Exp(float64(bakerLongLifetimeMean)))
			}
			heap.Push(&deletes, pendingDelete{at: now.Add(life), file: f})
		}
	}
	emitDeletesThrough(end)
	return &t, nil
}
