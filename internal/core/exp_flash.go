package core

import (
	"errors"
	"fmt"

	"ssmobile/internal/device"
	"ssmobile/internal/flash"
	"ssmobile/internal/ftl"
	"ssmobile/internal/obs"
	"ssmobile/internal/sim"
)

// e6FTL builds the small, fast-erasing flash device the wear
// experiments sweep policies over, and a translation layer of variant v
// on it.
func e6FTL(o *obs.Observer, endurance int64, v e6Variant) (*flash.Device, *ftl.FTL, error) {
	clock := sim.NewClock()
	params := device.IntelFlash
	params.EnduranceCycles = endurance
	params.EraseLatencyNs = 1e6
	dev, err := flash.New(flash.Config{
		Banks: 2, BlocksPerBank: 64, BlockBytes: 16 * 1024, Params: params,
		Obs: o,
	}, clock, sim.NewEnergyMeter())
	if err != nil {
		return nil, nil, err
	}
	l, err := ftl.New(dev, clock, ftl.Config{
		PageBytes: 1024, Policy: v.policy, HotCold: v.hotCold,
		WearDeltaThreshold: v.wearDelta,
		Obs:                o,
	})
	return dev, l, err
}

type e6Variant struct {
	name      string
	policy    ftl.Policy
	hotCold   bool
	wearDelta int64
}

func e6Variants() []e6Variant {
	return []e6Variant{
		{"direct (no leveling)", ftl.PolicyDirect, false, 0},
		{"fifo log", ftl.PolicyFIFO, false, 0},
		{"greedy log", ftl.PolicyGreedy, false, 0},
		{"cost-benefit", ftl.PolicyCostBenefit, false, 0},
		{"cost-benefit + hot/cold", ftl.PolicyCostBenefit, true, 0},
		{"cost-benefit + hot/cold + static", ftl.PolicyCostBenefit, true, 16},
	}
}

// E6WearLeveling regenerates the §3.3 argument for log-structured
// cleaning: under a skewed write workload, wear-leveling policies spread
// erasures evenly (low coefficient of variation) where the naive direct
// mapping concentrates them, at a bounded write-amplification cost.
func E6WearLeveling(env *Env, seed int64) (*Table, error) {
	t := &Table{
		ID:      "E6",
		Title:   "wear leveling under a zipf write workload (16k page writes)",
		Headers: []string{"policy", "erase CoV", "max erases", "total erases", "write amp", "cleans"},
	}
	const ops = 16000
	variants := e6Variants()
	rows := make([][]string, len(variants))
	err := env.ForEach(len(variants), func(i int, je *Env) error {
		v := variants[i]
		dev, l, err := e6FTL(je.Obs(), 0, v)
		if err != nil {
			return err
		}
		g := sim.NewRNG(seed)
		z := g.Zipf(1.2, uint64(l.LogicalPages()))
		page := make([]byte, 1024)
		for i := 0; i < ops; i++ {
			page[0] = byte(i)
			if err := l.WritePage(int64(z.Next()), page); err != nil {
				return fmt.Errorf("%s: %w", v.name, err)
			}
		}
		ds := dev.Stats()
		ls := l.Stats()
		rows[i] = []string{v.name,
			fmt.Sprintf("%.2f", ds.EraseCountCoV),
			fmt.Sprint(ds.MaxEraseCount),
			fmt.Sprint(ds.Erases),
			fmt.Sprintf("%.2f", ls.WriteAmplification),
			fmt.Sprint(ls.Cleans),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.addRows(rows)
	t.Notes = append(t.Notes,
		"lower CoV = more even wear; direct mapping pays massive amplification AND uneven wear")
	return t, nil
}

// E6Lifetime measures how many host bytes each policy absorbs before the
// first block exhausts a (scaled-down) endurance of 200 cycles — the
// "prolong the life of flash memory" claim made measurable. Results scale
// linearly to the real 100,000-cycle endurance.
func E6Lifetime(env *Env, seed int64) (*Table, error) {
	t := &Table{
		ID:      "E6b",
		Title:   "host data written before first block wears out (endurance scaled to 200 cycles)",
		Headers: []string{"policy", "host MB until first wear-out", "vs direct"},
	}
	variants := e6Variants()
	mbs := make([]float64, len(variants))
	err := env.ForEach(len(variants), func(i int, je *Env) error {
		v := variants[i]
		_, l, err := e6FTL(je.Obs(), 200, v)
		if err != nil {
			return err
		}
		g := sim.NewRNG(seed)
		z := g.Zipf(1.2, uint64(l.LogicalPages()))
		page := make([]byte, 1024)
		var hostBytes int64
		for i := 0; ; i++ {
			page[0] = byte(i)
			err := l.WritePage(int64(z.Next()), page)
			if err != nil && !errors.Is(err, ftl.ErrDeviceWorn) {
				return fmt.Errorf("%s: %w", v.name, err)
			}
			if l.RetiredBlocks() > 0 {
				hostBytes = l.WearStats().FirstWearOutHostBytes
				break
			}
			if errors.Is(err, ftl.ErrDeviceWorn) {
				hostBytes = l.Stats().HostBytesWritten
				break
			}
			if i > 30_000_000 {
				hostBytes = l.Stats().HostBytesWritten
				break
			}
		}
		mbs[i] = float64(hostBytes) / (1 << 20)
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The "vs direct" column normalizes against variant 0 (the direct
	// mapping), which the sequential loop computed first; with the sweep
	// parallel, the ratio is applied at assembly time instead.
	var direct float64
	for i, v := range variants {
		mb := mbs[i]
		if v.policy == ftl.PolicyDirect {
			direct = mb
		}
		ratio := "-"
		if direct > 0 {
			ratio = fmt.Sprintf("%.1fx", mb/direct)
		}
		t.AddRow(v.name, fmt.Sprintf("%.1f", mb), ratio)
	}
	return t, nil
}

// E6Static isolates static wear leveling: a third of the device holds
// data that is never written again (the installed-application case from
// the paper's read-mostly discussion), pinning its blocks at zero erases,
// while a hot set hammers the rest. Dynamic policies cannot touch the
// pinned blocks; static leveling relocates them so their endurance joins
// the pool.
func E6Static(env *Env, seed int64) (*Table, error) {
	t := &Table{
		ID:      "E6c",
		Title:   "static wear leveling with pinned cold data (1/3 of device never rewritten)",
		Headers: []string{"static leveling", "erase CoV", "max erases", "min erases", "spread", "forced moves"},
	}
	thresholds := []int64{0, 8}
	rows := make([][]string, len(thresholds))
	err := env.ForEach(len(thresholds), func(i int, je *Env) error {
		threshold := thresholds[i]
		dev, l, err := e6FTL(je.Obs(), 0, e6Variant{policy: ftl.PolicyCostBenefit, hotCold: true, wearDelta: threshold})
		if err != nil {
			return err
		}
		page := make([]byte, 1024)
		coldPages := l.LogicalPages() / 3
		for lpn := int64(0); lpn < coldPages; lpn++ {
			if err := l.WritePage(lpn, page); err != nil {
				return err
			}
		}
		g := sim.NewRNG(seed)
		for i := 0; i < 120000; i++ {
			lpn := coldPages + int64(g.Intn(16))
			page[0] = byte(i)
			if err := l.WritePage(lpn, page); err != nil {
				return err
			}
		}
		counts := dev.EraseCounts()
		var minC, maxC int64 = 1 << 62, 0
		for _, c := range counts {
			if c < minC {
				minC = c
			}
			if c > maxC {
				maxC = c
			}
		}
		name := "off"
		if threshold > 0 {
			name = fmt.Sprintf("on (delta %d)", threshold)
		}
		rows[i] = []string{name,
			fmt.Sprintf("%.2f", dev.Stats().EraseCountCoV),
			fmt.Sprint(maxC), fmt.Sprint(minC), fmt.Sprint(maxC - minC),
			fmt.Sprint(l.WearStats().StaticMoves)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.addRows(rows)
	t.Notes = append(t.Notes,
		"without static moves, cold blocks sit at ~0 erases while the hot region wears;",
		"with them, the spread stays bounded by the threshold and device lifetime extends")
	return t, nil
}

// e7Card builds E7's card: 64 blocks of 64KB split over banks.
func e7Card(o *obs.Observer, banks int) (*flash.Device, *sim.Clock, error) {
	clock := sim.NewClock()
	dev, err := flash.New(flash.Config{
		Banks:         banks,
		BlocksPerBank: 64 / banks,
		BlockBytes:    64 * 1024,
		Params:        device.IntelFlash,
		Obs:           o,
	}, clock, sim.NewEnergyMeter())
	return dev, clock, err
}

// e7Reads times E7's foreground reader: 4000 512-byte reads of random
// addresses below readSpan, a mean 4ms apart, against a background log
// stream. The stream is the storage manager migrating buffered data at a
// fixed 25KB/s: one 4KB program every 160ms into bank writeBank(i) on the
// i-th pump, appended to that bank's log, with the oldest log block
// erased after every 16 programs. With the Intel part's 1.6s block
// erase, that load occupies ~86% of ONE bank. The log stripes across
// banks as the translation layer's rotating log heads do.
func e7Reads(dev *flash.Device, clock *sim.Clock, g *sim.RNG, writeBank func(i int) int, readSpan int64) (hist *sim.Histogram, stalled, programs int, err error) {
	const blockBytes = 64 * 1024
	bankBytes := dev.Capacity() / int64(dev.Config().Banks)
	bankPtr := make([]int64, dev.Config().Banks)
	var logFIFO []int
	prog := make([]byte, 4096)
	pumps := 0
	pump := func() {
		b := writeBank(pumps)
		pumps++
		addr := int64(b)*bankBytes + bankPtr[b]%bankBytes
		if dev.ProgramAsync(addr, prog) != nil {
			return // the log wrapped onto a block not yet erased
		}
		if bankPtr[b]%blockBytes == 0 {
			logFIFO = append(logFIFO, dev.BlockOf(addr))
		}
		bankPtr[b] += int64(len(prog))
		programs++
		if programs%16 == 0 && len(logFIFO) > 0 {
			_ = dev.EraseAsync(logFIFO[0]) // fails only on wear-out, out of reach in a 16s run
			logFIFO = logFIFO[1:]
		}
	}

	hist = sim.NewHistogram("read")
	buf := make([]byte, 512)
	var next sim.Time
	for i := 0; i < 4000; i++ {
		clock.Advance(sim.Duration(g.Exp(float64(4 * sim.Millisecond))))
		for ; next <= clock.Now(); next = next.Add(160 * sim.Millisecond) {
			pump()
		}
		addr := g.Int63n(readSpan - int64(len(buf)))
		before := dev.Stats().ReadStallNs
		lat, err := dev.Read(addr, buf)
		if err != nil {
			return nil, 0, 0, err
		}
		if dev.Stats().ReadStallNs > before {
			stalled++
		}
		hist.ObserveDuration(lat)
	}
	return hist, stalled, programs, nil
}

// E7Banking regenerates the §3.3 banking claim: "to maintain fast read
// access ... during the slow erase/write cycles of flash memory, it may
// prove necessary to partition flash memory into two or more banks". A
// foreground reader shares the device with a background write-and-erase
// stream; more banks mean fewer reads queue behind busy banks.
func E7Banking(env *Env, seed int64) (*Table, error) {
	t := &Table{
		ID:      "E7",
		Title:   "foreground read latency vs flash bank count (background log writes + erases)",
		Headers: []string{"banks", "read mean", "read p50", "read p99", "read max", "stalled reads", "bg write throughput"},
	}
	bankCounts := []int{1, 2, 4, 8}
	rows := make([][]string, len(bankCounts))
	err := env.ForEach(len(bankCounts), func(idx int, je *Env) error {
		banks := bankCounts[idx]
		dev, clock, err := e7Card(je.Obs(), banks)
		if err != nil {
			return err
		}
		hist, stalled, programs, err := e7Reads(dev, clock, sim.NewRNG(seed),
			func(i int) int { return i % banks }, dev.Capacity())
		if err != nil {
			return err
		}
		elapsed := clock.Now().Seconds()
		rows[idx] = []string{fmt.Sprint(banks),
			fmtDur(sim.Duration(hist.Mean())),
			fmtDur(sim.Duration(hist.Quantile(0.5))),
			fmtDur(sim.Duration(hist.Quantile(0.99))),
			fmtDur(sim.Duration(hist.Max())),
			fmt.Sprintf("%.1f%%", float64(stalled)/float64(hist.Count())*100),
			fmt.Sprintf("%.2f MB/s", float64(programs)*4096/(1<<20)/elapsed),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.addRows(rows)
	t.Notes = append(t.Notes,
		"one bank: reads queue behind 41ms programs and 1.6s erases; more banks isolate them")
	return t, nil
}

// E7Segregation is the ablation for the paper's specific §3.3 layout:
// "One bank would hold read-mostly data, such as application programs,
// while others would be used for data that is more frequently written."
// With four banks, it compares writes striped across all four (mixed)
// against writes confined to one write bank with the read-mostly data in
// the other three (segregated).
func E7Segregation(env *Env, seed int64) (*Table, error) {
	t := &Table{
		ID:      "E7b",
		Title:   "read-mostly bank segregation (4 banks, same background write load)",
		Headers: []string{"layout", "read mean", "read p99", "stalled reads"},
	}
	const banks = 4
	layouts := []bool{false, true}
	rows := make([][]string, len(layouts))
	err := env.ForEach(len(layouts), func(idx int, je *Env) error {
		segregated := layouts[idx]
		dev, clock, err := e7Card(je.Obs(), banks)
		if err != nil {
			return err
		}
		// Writes stripe from the last bank down; segregated, only the last
		// bank takes them. Foreground reads sample the read-mostly data:
		// in the segregated layout that data occupies the first three
		// banks; in the mixed layout it is spread over all four (and so
		// collides with the write stream).
		writeBanks, readSpan := banks, dev.Capacity()
		name := "mixed (writes striped over all banks)"
		if segregated {
			writeBanks, readSpan = 1, dev.Capacity()/banks*(banks-1)
			name = "segregated (read-mostly banks + one write bank)"
		}
		hist, stalled, _, err := e7Reads(dev, clock, sim.NewRNG(seed),
			func(i int) int { return banks - 1 - i%writeBanks }, readSpan)
		if err != nil {
			return err
		}
		rows[idx] = []string{name,
			fmtDur(sim.Duration(hist.Mean())),
			fmtDur(sim.Duration(hist.Quantile(0.99))),
			fmt.Sprintf("%.1f%%", float64(stalled)/float64(hist.Count())*100),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.addRows(rows)
	t.Notes = append(t.Notes,
		"segregation removes read/write collisions entirely, at the cost of concentrating wear",
		"in the write bank — which the translation layer's wear leveling must then absorb")
	return t, nil
}
