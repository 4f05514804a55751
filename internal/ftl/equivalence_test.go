package ftl

import (
	"fmt"
	"testing"

	"ssmobile/internal/device"
	"ssmobile/internal/flash"
	"ssmobile/internal/sim"
)

// The equivalence tests drive two translation layers — one deciding via
// the incremental indexes, one forced onto the retained linear-scan
// reference paths (scanMode) — through the same seeded randomized
// workload and assert they clean the same victims in the same order and
// end with identical erase counts and write amplification. This is the
// contract the indexes were built to: not merely "a good victim" but the
// scan's exact choice, tie-breaks included.
//
// They run on two cards. The quick one erases in a millisecond, in the
// foreground, so no bank is ever busy when a decision is taken and only
// the log heads' banks rank victims. The banked one is the served card in
// small: four banks, the real 1.6 s erase issued in the background, so
// most decisions find some banks erasing — the per-bank index must track
// the scan while the banks' classes change under it from pick to pick.

// equivalenceCard builds one of the two cards, with a spare area for the
// mount test.
func equivalenceCard(t *testing.T, banked bool) (*flash.Device, *sim.Clock) {
	t.Helper()
	clock := sim.NewClock()
	cfg := flash.Config{
		Banks: 2, BlocksPerBank: 32, BlockBytes: 4096,
		SpareBytes: 64, SpareUnitBytes: 1024,
		Params: device.IntelFlash,
	}
	if banked {
		cfg.Banks, cfg.BlocksPerBank = 4, 16
	} else {
		cfg.Params.EraseLatencyNs = 1e6
	}
	dev, err := flash.New(cfg, clock, sim.NewEnergyMeter())
	if err != nil {
		t.Fatal(err)
	}
	return dev, clock
}

func equivalencePair(t *testing.T, policy Policy, hotCold bool, wearDelta int64, banked bool) (ref, idx *FTL) {
	t.Helper()
	mk := func(scan bool) *FTL {
		dev, clock := equivalenceCard(t, banked)
		f, err := New(dev, clock, Config{
			PageBytes:          1024,
			ReserveBlocks:      3,
			Policy:             policy,
			HotCold:            hotCold,
			WearDeltaThreshold: wearDelta,
			BackgroundErase:    banked,
		})
		if err != nil {
			t.Fatal(err)
		}
		f.scanMode = scan
		return f
	}
	return mk(true), mk(false)
}

// anyBankBusy reports whether some bank has work in progress right now.
func anyBankBusy(f *FTL) bool {
	for bank := range f.freeByBank {
		if !f.pool.BankIdle(bank) {
			return true
		}
	}
	return false
}

// driveEquivalence runs the same randomized workload against both layers
// and compares every observable: victim sequences, per-block erase
// counts, stats, and the internal invariants (which themselves cross-check
// index against scan after every phase).
func driveEquivalence(t *testing.T, ref, idx *FTL, seed int64) {
	t.Helper()
	var refVictims, idxVictims []int
	busyPicks := 0
	ref.onClean = func(v int) { refVictims = append(refVictims, v) }
	idx.onClean = func(v int) {
		idxVictims = append(idxVictims, v)
		if anyBankBusy(idx) {
			busyPicks++
		}
	}

	rng := sim.NewRNG(seed)
	pages := ref.LogicalPages()
	data := make([]byte, ref.PageBytes())
	for op := 0; op < 12000; op++ {
		// Zipf-ish skew: half the ops hit the hot sixteenth of the space.
		var lpn int64
		if rng.Intn(2) == 0 {
			lpn = rng.Int63n(pages/16 + 1)
		} else {
			lpn = rng.Int63n(pages)
		}
		switch rng.Intn(10) {
		case 1: // a pause, so that some decisions find the erases over
			if rng.Intn(8) == 0 {
				d := sim.Duration(rng.Int63n(int64(2 * sim.Second)))
				ref.clock.Advance(d)
				idx.clock.Advance(d)
			}
		case 0: // trim
			if err := ref.TrimPage(lpn); err != nil {
				t.Fatalf("ref trim: %v", err)
			}
			if err := idx.TrimPage(lpn); err != nil {
				t.Fatalf("idx trim: %v", err)
			}
		default:
			data[0] = byte(op)
			if err := ref.WritePage(lpn, data); err != nil {
				t.Fatalf("ref write op %d: %v", op, err)
			}
			if err := idx.WritePage(lpn, data); err != nil {
				t.Fatalf("idx write op %d: %v", op, err)
			}
		}
		if op%997 == 0 {
			if err := idx.CheckInvariants(); err != nil {
				t.Fatalf("idx invariants at op %d: %v", op, err)
			}
		}
	}
	if err := ref.CheckInvariants(); err != nil {
		t.Fatalf("ref invariants: %v", err)
	}
	if err := idx.CheckInvariants(); err != nil {
		t.Fatalf("idx invariants: %v", err)
	}

	if ref.cfg.Policy == PolicyDirect {
		// The direct policy erases in place and never selects victims; its
		// equivalence claim is just that behaviour is unchanged, which the
		// erase-count and stats comparisons below cover.
		if len(refVictims) != 0 || len(idxVictims) != 0 {
			t.Fatalf("direct policy ran the cleaner: scan %d, index %d", len(refVictims), len(idxVictims))
		}
	} else if len(refVictims) == 0 {
		t.Fatal("workload never triggered cleaning; equivalence not exercised")
	}
	if idx.cfg.BackgroundErase && (busyPicks == 0 || busyPicks == len(idxVictims)) {
		t.Fatalf("%d of %d victims picked with a bank busy; want some of each", busyPicks, len(idxVictims))
	}
	if !idx.cfg.BackgroundErase && busyPicks != 0 {
		t.Fatalf("%d victims picked with a bank busy on a card that erases in the foreground", busyPicks)
	}
	if len(refVictims) != len(idxVictims) {
		t.Fatalf("victim count: scan cleaned %d, index cleaned %d", len(refVictims), len(idxVictims))
	}
	for i := range refVictims {
		if refVictims[i] != idxVictims[i] {
			t.Fatalf("victim %d: scan chose block %d, index chose block %d", i, refVictims[i], idxVictims[i])
		}
	}
	refCounts := ref.Device().EraseCounts()
	idxCounts := idx.Device().EraseCounts()
	for b := range refCounts {
		if refCounts[b] != idxCounts[b] {
			t.Fatalf("erase count block %d: scan %d, index %d", b, refCounts[b], idxCounts[b])
		}
	}
	rs, is := ref.Stats(), idx.Stats()
	if rs != is {
		t.Fatalf("stats diverged:\nscan:  %+v\nindex: %+v", rs, is)
	}
}

func TestVictimIndexEquivalence(t *testing.T) {
	cases := []struct {
		policy    Policy
		hotCold   bool
		wearDelta int64
		banked    bool
	}{
		{PolicyDirect, false, 0, false},
		{PolicyFIFO, false, 0, false},
		{PolicyGreedy, false, 0, false},
		{PolicyCostBenefit, false, 0, false},
		{PolicyCostBenefit, true, 0, false},
		{PolicyCostBenefit, true, 8, false}, // static wear leveling engaged
		{PolicyGreedy, true, 8, false},
		{PolicyFIFO, false, 0, true},
		{PolicyGreedy, false, 0, true},
		{PolicyCostBenefit, true, 0, true},
		{PolicyCostBenefit, true, 8, true},
	}
	for _, tc := range cases {
		tc := tc
		name := fmt.Sprintf("%v/hotcold=%v/wear=%d", tc.policy, tc.hotCold, tc.wearDelta)
		if tc.banked {
			name += "/banked"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range []int64{1993, 7, 42} {
				ref, idx := equivalencePair(t, tc.policy, tc.hotCold, tc.wearDelta, tc.banked)
				driveEquivalence(t, ref, idx, seed)
			}
		})
	}
}

// TestVictimIndexAfterMount asserts the indexes Mount rebuilds from the
// OOB scan make the same decisions as a scan over the mounted state: on
// the quick card for the served policy, and on the banked card for every
// policy with an index.
func TestVictimIndexAfterMount(t *testing.T) {
	for _, banked := range []bool{false, true} {
		for _, policy := range []Policy{PolicyFIFO, PolicyGreedy, PolicyCostBenefit} {
			if !banked && policy != PolicyCostBenefit {
				continue
			}
			t.Run(fmt.Sprintf("%v/banked=%v", policy, banked), func(t *testing.T) {
				dev, clock := equivalenceCard(t, banked)
				cfg := Config{
					PageBytes:          1024,
					ReserveBlocks:      3,
					Policy:             policy,
					HotCold:            true,
					PersistMapping:     true,
					WearDeltaThreshold: 8,
					BackgroundErase:    banked,
				}
				f, err := New(dev, clock, cfg)
				if err != nil {
					t.Fatal(err)
				}
				rng := sim.NewRNG(1993)
				data := make([]byte, cfg.PageBytes)
				for op := 0; op < 4000; op++ {
					if err := f.WritePage(rng.Int63n(f.LogicalPages()), data); err != nil {
						t.Fatal(err)
					}
				}
				// Power failure: remount from the same device — on the banked
				// card with the last erases still in progress — and verify the
				// rebuilt indexes agree with the reference scans over the
				// recovered state, at once and every few hundred writes after.
				if banked && !anyBankBusy(f) {
					t.Fatal("no bank busy at the cut; the mount is not exercised under erases")
				}
				m, err := Mount(dev, clock, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := m.CheckInvariants(); err != nil {
					t.Fatalf("mounted invariants: %v", err)
				}
				rng = sim.NewRNG(7)
				for op := 0; op < 4000; op++ {
					if err := m.WritePage(rng.Int63n(m.LogicalPages()), data); err != nil {
						t.Fatal(err)
					}
					if op%499 == 0 {
						if err := m.CheckInvariants(); err != nil {
							t.Fatalf("invariants %d writes after the mount: %v", op, err)
						}
					}
				}
				if err := m.CheckInvariants(); err != nil {
					t.Fatalf("post-mount workload invariants: %v", err)
				}
			})
		}
	}
}
