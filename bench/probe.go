package main

import "time"

// The speed probe. The boxes this benchmark runs on share a host, and a
// busy neighbour slows a core and the caches behind it by a fifth to a
// half for milliseconds to minutes at a time — spells that can outlast a
// run, so repeating inside one run does not average them out. The sim
// drive therefore interleaves its requests with a fixed piece of work
// that suffers the same way: probeReads scattered reads over a table of
// more than L1 holds, which the requests in between push out towards the
// shared cache. A chunk of requests whose neighbouring probes took twice
// the reference time was served by a box running at about half speed,
// and its host time is scaled back by that ratio (hostNs). The idea is
// duet benchmarking's (Bulej et al., ICPE 2020: run the two things to be
// compared side by side, so both see the same interference), with a
// synthetic partner that no change to the repo can speed up. README.md
// has the measurements that chose this probe over three others.
const (
	probeWords = 1 << 15 // 256 KB of uint64
	probeReads = 4000
	// probeRefNs is about the probe's median duration between chunks on
	// the box the baseline was taken on. It only fixes the scale: host
	// time is reported as it would read at a moment when the probe takes
	// this long.
	probeRefNs = 20000
)

// probeTable is read-only once filled, so concurrent drives share it.
var probeTable = newProbeTable()

// newProbeTable fills the table, so that every page of it is backed by
// memory of its own rather than by the kernel's shared zero page.
func newProbeTable() []uint64 {
	t := make([]uint64, probeWords)
	x := uint64(88172645463325252)
	for i := range t {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		t[i] = x
	}
	return t
}

// prober is one drive's probe. It carries the read sequence from one
// reading to the next, so successive readings touch different lines and
// none finds its lines still in a private cache.
type prober struct {
	x, sum uint64
}

func newProber() prober { return prober{x: 88172645463325252} }

// read runs the fixed work once and returns how long it took.
func (p *prober) read() int64 {
	t0 := time.Now()
	x, sum := p.x, p.sum
	for i := 0; i < probeReads; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		sum += probeTable[x%probeWords]
	}
	p.x, p.sum = x, sum
	return int64(time.Since(t0))
}
