package ftl

import (
	"testing"

	"ssmobile/internal/sim"
)

// The bank contract (the pdl engine pins the same two rows in its own
// package): on the served card in small — four banks, the real 1.6 s
// erase, issued in the background — the next log head never opens in a
// bank that is erasing and the next victim comes from neither such a bank
// nor a log head's; when every bank is busy both decisions still return a
// block, the one the engine's own order picks with no ranking at all.

// churned builds an engine on the banked equivalence card and overwrites
// it at random until the cleaner has run for a while, so that every bank
// holds blocks with dead pages and both log heads are open.
func churned(t *testing.T, policy Policy) *FTL {
	t.Helper()
	dev, clock := equivalenceCard(t, true)
	f, err := New(dev, clock, Config{
		PageBytes: 1024, Policy: policy, HotCold: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(1993)
	data := make([]byte, f.PageBytes())
	for op := 0; op < 3000; op++ {
		if err := f.WritePage(rng.Int63n(f.LogicalPages()), data); err != nil {
			t.Fatal(err)
		}
	}
	if f.hotActive == -1 || f.coldActive == -1 || f.Stats().Cleans == 0 {
		t.Fatal("set-up: want both heads open and the cleaner run")
	}
	return f
}

// unranked is the policy's own choice among the eligible blocks ok
// admits: best score, lowest block id on a tie.
func unranked(f *FTL, ok func(bank int) bool) int {
	best, bestScore := -1, 0.0
	for b := 0; b < f.numBlocks; b++ {
		if !f.victimEligible(b) || !ok(f.dev.BankOf(b)) {
			continue
		}
		if score := f.victimScore(b, f.clock.Now()); best == -1 || score > bestScore {
			best, bestScore = b, score
		}
	}
	return best
}

func anyBank(int) bool { return true }

// rotationBank is the bank allocation chose before it asked which banks
// were busy: the first in rotation with a free block.
func rotationBank(f *FTL) int {
	for i := range f.freeByBank {
		if bank := (f.nextBank + i) % len(f.freeByBank); len(f.freeByBank[bank]) > 0 {
			return bank
		}
	}
	return -1
}

func TestBankContract(t *testing.T) {
	for _, policy := range []Policy{PolicyFIFO, PolicyGreedy, PolicyCostBenefit} {
		t.Run(policy.String(), func(t *testing.T) {
			t.Run("one bank erasing", func(t *testing.T) {
				f := churned(t, policy)
				f.clock.Advance(10 * sim.Second) // every erase of the set-up is over
				first := f.pickVictim()
				if err := f.pool.Clean(first); err != nil {
					t.Fatal(err)
				}
				erasing := f.dev.BankOf(first)
				if f.pool.BankIdle(erasing) || anyOtherBankBusy(f, erasing) {
					t.Fatal("set-up: want exactly the first victim's bank busy")
				}
				if bank := f.headBank(); bank == erasing {
					t.Errorf("next head opens in bank %d, which is erasing", bank)
				}
				hot, cold := f.dev.BankOf(f.hotActive), f.dev.BankOf(f.coldActive)
				next := f.dev.BankOf(f.pickVictim())
				if next == erasing || next == hot || next == cold {
					t.Errorf("next victim in bank %d; bank %d is erasing and the heads are in %d and %d", next, erasing, hot, cold)
				}
				// The ranking only reorders: the victim is the policy's own
				// best among the banks left.
				want := unranked(f, func(bank int) bool { return bank != erasing && bank != hot && bank != cold })
				if got := f.pickVictim(); got != want {
					t.Errorf("victim %d, want the policy's best outside those banks, %d", got, want)
				}
			})
			t.Run("every bank busy", func(t *testing.T) {
				f := churned(t, policy)
				f.clock.Advance(10 * sim.Second)
				for bank := range f.freeByBank {
					occupy(t, f, bank)
				}
				if got, want := f.pickVictim(), unranked(f, anyBank); got == -1 || got != want {
					t.Errorf("victim %d, want the unranked choice %d", got, want)
				}
				if got, want := f.headBank(), rotationBank(f); got == -1 || got != want {
					t.Errorf("head in bank %d, want the rotation's choice %d", got, want)
				}
			})
		})
	}
}

func anyOtherBankBusy(f *FTL, except int) bool {
	for bank := range f.freeByBank {
		if bank != except && !f.pool.BankIdle(bank) {
			return true
		}
	}
	return false
}

// occupy makes the bank busy without changing a bit of it: its first
// block's own bytes programmed over themselves, posted in the background.
func occupy(t *testing.T, f *FTL, bank int) {
	t.Helper()
	addr := f.dev.BlockAddr(bank * f.numBlocks / len(f.freeByBank))
	same := make([]byte, f.dev.BlockBytes())
	for i := range same {
		same[i] = f.dev.Peek(addr + int64(i))
	}
	if err := f.dev.ProgramAsync(addr, same); err != nil {
		t.Fatal(err)
	}
	if f.pool.BankIdle(bank) {
		t.Fatalf("bank %d still idle after a posted program", bank)
	}
}
