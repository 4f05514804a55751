package pdl

import (
	"math/rand"
	"testing"

	"ssmobile/internal/device"
	"ssmobile/internal/engine"
	"ssmobile/internal/sim"
)

// The bank contract (the ftl engine pins the same two rows in its own
// package): on the served card in small — four banks, the real 1.6 s
// erase, issued in the background — the next log head never opens in a
// bank that is erasing and the next victim comes from neither such a bank
// nor a log head's; when every bank is busy both decisions still return a
// block, the one the engine's own order picks with no ranking at all.

// churn overwrites narrow ranges of random pages — of a working set well
// under the card's capacity, hot enough to force cleaning — so that base
// and delta blocks alike fill, die and get cleaned.
func churn(t *testing.T, e *Engine, rng *rand.Rand, ops int, each func()) {
	t.Helper()
	page := make([]byte, testPage)
	for op := 0; op < ops; op++ {
		lpn := int64(rng.Intn(40))
		rng.Read(page[:64+rng.Intn(1024)])
		if err := e.WritePageTagged(lpn, page, engine.Tag{}); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		if each != nil {
			each()
		}
	}
}

// churned builds an engine on the four-bank card and churns it until the
// cleaner has run for a while and both log heads are open.
func churned(t *testing.T) *rig {
	t.Helper()
	r := newRigOn(t, 4, device.IntelFlash, Config{})
	churn(t, r.e, rand.New(rand.NewSource(1993)), 1500, nil)
	if r.e.baseActive == -1 || r.e.deltaActive == -1 || r.e.Stats().Cleans == 0 {
		t.Fatal("set-up: want both heads open and the cleaner run")
	}
	return r
}

// unranked is the engine's own choice among the blocks ok admits: most
// dead bytes, lowest block id on a tie.
func unranked(e *Engine, ok func(bank int) bool) int {
	best, bestDead := -1, int64(0)
	for b := 0; b < e.numBlocks; b++ {
		if dead := e.deadBytes(b); dead > bestDead && ok(e.dev.BankOf(b)) {
			best, bestDead = b, dead
		}
	}
	return best
}

func anyBank(int) bool { return true }

// lowestFree is the block allocation chose before it asked which banks
// were busy.
func lowestFree(e *Engine) int {
	for b := 0; b < e.numBlocks; b++ {
		if e.pool.IsFree(b) {
			return b
		}
	}
	return -1
}

func busyBanks(e *Engine) (busy []int) {
	for bank := 0; bank < e.dev.Banks(); bank++ {
		if !e.pool.BankIdle(bank) {
			busy = append(busy, bank)
		}
	}
	return busy
}

func TestBankContract(t *testing.T) {
	t.Run("one bank erasing", func(t *testing.T) {
		r := churned(t)
		e := r.e
		r.clock.Advance(10 * sim.Second) // every erase of the set-up is over
		first := e.pickVictim()
		if err := e.pool.Clean(first); err != nil {
			t.Fatal(err)
		}
		erasing := e.dev.BankOf(first)
		if busy := busyBanks(e); len(busy) != 1 || busy[0] != erasing {
			t.Fatalf("set-up: banks %v busy, want exactly the first victim's, %d", busy, erasing)
		}
		if bank := e.dev.BankOf(e.freeBlock()); bank == erasing {
			t.Errorf("next head opens in bank %d, which is erasing", bank)
		}
		base, delta := e.dev.BankOf(e.baseActive), e.dev.BankOf(e.deltaActive)
		got := e.pickVictim()
		if next := e.dev.BankOf(got); next == erasing || next == base || next == delta {
			t.Errorf("next victim in bank %d; bank %d is erasing and the heads are in %d and %d", next, erasing, base, delta)
		}
		// The ranking only reorders: the victim is the engine's own best
		// among the banks left.
		if want := unranked(e, func(bank int) bool { return bank != erasing && bank != base && bank != delta }); got != want {
			t.Errorf("victim %d, want the most dead bytes outside those banks, %d", got, want)
		}
	})
	t.Run("every bank busy", func(t *testing.T) {
		r := churned(t)
		e := r.e
		r.clock.Advance(10 * sim.Second)
		// Each bank's first block programmed over itself, in the
		// background: busy, and not a bit changed.
		same := make([]byte, e.dev.BlockBytes())
		for bank := 0; bank < e.dev.Banks(); bank++ {
			addr := e.dev.BlockAddr(bank * e.numBlocks / e.dev.Banks())
			for i := range same {
				same[i] = e.dev.Peek(addr + int64(i))
			}
			if err := e.dev.ProgramAsync(addr, same); err != nil {
				t.Fatal(err)
			}
		}
		if busy := busyBanks(e); len(busy) != e.dev.Banks() {
			t.Fatalf("set-up: only banks %v busy", busy)
		}
		if got, want := e.pickVictim(), unranked(e, anyBank); got == -1 || got != want {
			t.Errorf("victim %d, want the unranked choice %d", got, want)
		}
		if got, want := e.freeBlock(), lowestFree(e); got == -1 || got != want {
			t.Errorf("head on block %d, want the lowest-numbered free block %d", got, want)
		}
	})
}
