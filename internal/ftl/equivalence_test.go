package ftl

import (
	"errors"
	"fmt"
	"testing"

	"ssmobile/internal/device"
	"ssmobile/internal/engine/blocks"
	"ssmobile/internal/flash"
	"ssmobile/internal/obs"
	"ssmobile/internal/sim"
)

// The equivalence tests hold pickVictim, which scores only each valid
// count's oldest block under cost-benefit, to referenceVictim, which
// scores every eligible block, after every operation of a seeded
// randomized workload: not merely "a good victim" but the full scan's
// exact choice, tie-breaks included.
//
// They run on two cards, both erasing in the background. The quick one
// erases in a millisecond, so a bank is seldom busy when a decision is
// taken and the log heads' banks do most of the ranking. The banked one is
// the served card in small: four banks and the real 1.6 s erase, so most
// decisions find some banks erasing — the pick must track the reference
// while the banks' classes change under it from pick to pick.

// equivalenceConfig is one of the two cards, with a spare area for the
// mount tests.
func equivalenceConfig(banked bool) flash.Config {
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
	return cfg
}

func newCard(t *testing.T, cfg flash.Config) (*flash.Device, *sim.Clock) {
	t.Helper()
	clock := sim.NewClock()
	dev, err := flash.New(cfg, clock, sim.NewEnergyMeter())
	if err != nil {
		t.Fatal(err)
	}
	return dev, clock
}

func equivalenceCard(t *testing.T, banked bool) (*flash.Device, *sim.Clock) {
	t.Helper()
	return newCard(t, equivalenceConfig(banked))
}

// referenceVictim is the victim choice by definition: every eligible
// block offered with its bank's class and the policy's score.
func referenceVictim(f *FTL) int {
	classes := f.pool.VictimClasses()
	pick := blocks.NoVictim()
	now := f.clock.Now()
	for b := 0; b < f.numBlocks; b++ {
		if f.victimEligible(b) {
			pick.Offer(b, classes[f.dev.BankOf(b)], f.victimScore(b, now))
		}
	}
	return pick.Block
}

func checkVictim(t *testing.T, f *FTL, when string) {
	t.Helper()
	if got, want := f.pickVictim(), referenceVictim(f); got != want {
		t.Fatalf("%s: pickVictim chose block %d, the reference %d", when, got, want)
	}
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

// driveEquivalence runs a randomized workload of writes, trims and pauses,
// holding the pick to the reference after every op and the invariants
// every few hundred. On the banked card some victims, but not all, must be
// picked while a bank is busy.
func driveEquivalence(t *testing.T, f *FTL, seed int64, banked bool) {
	t.Helper()
	cleans, busyPicks := 0, 0
	f.onClean = func(int) {
		cleans++
		if anyBankBusy(f) {
			busyPicks++
		}
	}
	rng := sim.NewRNG(seed)
	pages := f.LogicalPages()
	data := make([]byte, f.PageBytes())
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
				f.clock.Advance(sim.Duration(rng.Int63n(int64(2 * sim.Second))))
			}
		case 0:
			if err := f.TrimPage(lpn); err != nil {
				t.Fatalf("trim op %d: %v", op, err)
			}
		default:
			data[0] = byte(op)
			if err := f.WritePage(lpn, data); err != nil {
				t.Fatalf("write op %d: %v", op, err)
			}
		}
		if f.cfg.Policy != PolicyDirect {
			checkVictim(t, f, fmt.Sprintf("op %d", op))
		}
		if op%997 == 0 {
			if err := f.CheckInvariants(); err != nil {
				t.Fatalf("invariants at op %d: %v", op, err)
			}
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}

	if f.cfg.Policy == PolicyDirect {
		// The direct policy erases in place and never selects victims.
		if cleans != 0 {
			t.Fatalf("direct policy ran the cleaner %d times", cleans)
		}
	} else if cleans == 0 {
		t.Fatal("workload never triggered cleaning; equivalence not exercised")
	}
	if banked && (busyPicks == 0 || busyPicks == cleans) {
		t.Fatalf("%d of %d victims picked with a bank busy; want some of each", busyPicks, cleans)
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
				dev, clock := equivalenceCard(t, tc.banked)
				f, err := New(dev, clock, Config{
					PageBytes:          1024,
					Policy:             tc.policy,
					HotCold:            tc.hotCold,
					WearDeltaThreshold: tc.wearDelta,
				})
				if err != nil {
					t.Fatal(err)
				}
				driveEquivalence(t, f, seed, tc.banked)
			}
		})
	}
}

// TestVictimIndexAfterMount holds the pick to the reference across a
// power failure: before the cut, over the state Mount rebuilds from the
// OOB scan, and after every write that follows; on the quick card for the
// served policy, and on the banked card for every log policy.
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
					Policy:             policy,
					HotCold:            true,
					PersistMapping:     true,
					WearDeltaThreshold: 8,
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
					checkVictim(t, f, fmt.Sprintf("write %d", op))
				}
				// Power failure: remount from the same device — on the banked
				// card with the last erases still in progress.
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
				checkVictim(t, m, "at the mount")
				rng = sim.NewRNG(7)
				for op := 0; op < 4000; op++ {
					if err := m.WritePage(rng.Int63n(m.LogicalPages()), data); err != nil {
						t.Fatal(err)
					}
					checkVictim(t, m, fmt.Sprintf("write %d after the mount", op))
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

// TestVictimThroughWearOut drives the banked card, with an endurance of
// 30 cycles, mapping persistence and static leveling on, through writes
// and trims until the device can take no more. Every retirement shrinks
// the logical capacity by one block's pages and leaves the layer
// consistent; a power failure after the first one mounts a layer that
// keeps serving writes to the end; and the pick matches the reference
// after every op throughout.
func TestVictimThroughWearOut(t *testing.T) {
	card := equivalenceConfig(true)
	card.Params.EnduranceCycles = 30
	dev, clock := newCard(t, card)
	cfg := Config{
		PageBytes:          1024,
		Policy:             PolicyCostBenefit,
		HotCold:            true,
		PersistMapping:     true,
		WearDeltaThreshold: 4,
		Obs:                obs.New(0),
	}
	f, err := New(dev, clock, cfg)
	if err != nil {
		t.Fatal(err)
	}
	full := f.LogicalPages()
	ppb := int64(f.pagesPerBlock)
	rng := sim.NewRNG(1993)
	data := make([]byte, cfg.PageBytes)
	retired, mounted, served := 0, false, 0
	var moves int64 // static moves before the mount; after it the card is worn level and none are due
	var end error
	for op := 0; end == nil; op++ {
		if op > 1_000_000 {
			t.Fatal("the card never wore out")
		}
		pages := f.LogicalPages()
		if pages == 0 {
			break
		}
		// Half the ops hit the hot sixteenth, so cold blocks lag in wear and
		// static leveling has work to do.
		lpn := rng.Int63n(pages)
		if rng.Intn(2) == 0 {
			lpn = rng.Int63n(pages/16 + 1)
		}
		if rng.Intn(10) == 0 {
			end = f.TrimPage(lpn)
		} else {
			data[0] = byte(op)
			end = f.WritePage(lpn, data)
			if end == nil && mounted {
				served++
			}
		}
		if end != nil && !errors.Is(end, ErrNoSpace) && !errors.Is(end, ErrDeviceWorn) {
			t.Fatalf("op %d: %v", op, end)
		}
		checkVictim(t, f, fmt.Sprintf("op %d", op))
		if r := f.Stats().RetiredBlocks; r != retired {
			retired = r
			if err := f.CheckInvariants(); err != nil {
				t.Fatalf("op %d, %d blocks retired: %v", op, retired, err)
			}
			if want := max(full-int64(retired)*ppb, 0); f.LogicalPages() != want {
				t.Fatalf("op %d: %d blocks retired leave %d logical pages, want %d",
					op, retired, f.LogicalPages(), want)
			}
			if !mounted {
				mounted = true
				moves = f.WearStats().StaticMoves
				if f, err = Mount(dev, clock, cfg); err != nil {
					t.Fatalf("mount after the first retirement: %v", err)
				}
				if err := f.CheckInvariants(); err != nil {
					t.Fatalf("mounted after the first retirement: %v", err)
				}
				checkVictim(t, f, "at the mount")
				retired = f.Stats().RetiredBlocks
				if want := full - int64(retired)*ppb; f.LogicalPages() != want {
					t.Fatalf("mount retired %d blocks and left %d logical pages, want %d",
						retired, f.LogicalPages(), want)
				}
			}
		}
	}
	if !mounted {
		t.Fatal("the card stopped before any block retired")
	}
	if retired < 2 || served == 0 {
		t.Fatalf("%d blocks retired and %d writes served after the mount; want the run well past it", retired, served)
	}
	if moves == 0 {
		t.Fatal("static leveling never moved a block")
	}
	t.Logf("stopped with %d blocks retired, %d logical pages, %d writes served after the mount, static moves %d + %d: %v",
		retired, f.LogicalPages(), served, moves, f.WearStats().StaticMoves, end)
}
