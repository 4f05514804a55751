package blocks

import (
	"errors"
	"testing"

	"ssmobile/internal/device"
	"ssmobile/internal/flash"
	"ssmobile/internal/obs"
	"ssmobile/internal/sim"
)

const (
	testPage   = 1024
	testRecord = RecordHeaderBytes + 8
	testMagic  = 0x54455354 // "TEST"
)

// testCard is 8 blocks of 4 pages with a spare record per page, and the
// observer the pool over it must share (the device reads the active wear
// cause from its own observer).
func testCard(t *testing.T, endurance int64, inj flash.Injector) (*flash.Device, *sim.Clock, *obs.Observer) {
	t.Helper()
	clock := sim.NewClock()
	o := obs.New(0)
	params := device.IntelFlash
	params.EraseLatencyNs = 1e6
	params.EnduranceCycles = endurance
	dev, err := flash.New(flash.Config{
		Banks: 2, BlocksPerBank: 4, BlockBytes: 4 * testPage, Params: params,
		SpareUnitBytes: testPage, SpareBytes: testRecord, Injector: inj, Obs: o,
	}, clock, sim.NewEnergyMeter())
	if err != nil {
		t.Fatal(err)
	}
	return dev, clock, o
}

// testPool builds a cleaning pool whose hooks are never expected to run.
func testPool(t *testing.T, dev *flash.Device, clock *sim.Clock, o *obs.Observer) *Pool {
	t.Helper()
	p, err := New(dev, clock, o, "test", testPage, 1, 0, false,
		func() int { return -1 }, func(int) error { return errors.New("unexpected clean") }, noHeads)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// noHeads is the log-head hook of a test engine that keeps none open.
func noHeads() (int, int) { return -1, -1 }

func filled(b byte, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = b
	}
	return p
}

// The blank check must see both kinds of residue a power cut leaves in a
// block with no surviving record: a torn data program, and the
// trembling array of an interrupted erase.
func TestBlankCheckSeesTornProgramAndTremblingErase(t *testing.T) {
	inj := &flash.CutAt{Index: 0, Fate: flash.CutDuring}
	dev, clock, o := testCard(t, 0, inj)
	p := testPool(t, dev, clock, o)
	if _, dirty := p.NonBlankAt(2); dirty {
		t.Fatal("fresh block fails the blank check")
	}
	// Torn data program into block 2, page 1.
	addr := dev.BlockAddr(2) + testPage
	if _, err := dev.Program(addr, filled(0x00, testPage)); !errors.Is(err, flash.ErrPowerCut) {
		t.Fatalf("program: %v", err)
	}
	dev.Restore()
	if off, dirty := p.NonBlankAt(2); !dirty || off != testPage {
		t.Fatalf("torn program: dirty=%v at %d, want offset %d", dirty, off, testPage)
	}
	if err := p.CheckInvariants(); err == nil {
		t.Fatal("ledger accepts a free block holding torn bytes")
	}

	// Block 5 holds data and a spare record; its erase is interrupted.
	inj.Index = dev.DestructiveOps() + 2
	if _, err := dev.Program(dev.BlockAddr(5), filled(0x00, testPage)); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.ProgramSpare(5*4, filled(0x00, testRecord)); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Erase(5); !errors.Is(err, flash.ErrPowerCut) {
		t.Fatalf("erase: %v", err)
	}
	dev.Restore()
	if _, dirty := p.NonBlankAt(5); !dirty {
		t.Fatal("trembling block passes the blank check")
	}
	// A spare-only residue is found too, at an offset past the data area.
	dev.SetInjector(nil)
	if _, err := dev.ProgramSpare(7*4+3, filled(0x00, testRecord)); err != nil {
		t.Fatal(err)
	}
	if off, dirty := p.NonBlankAt(7); !dirty || off != 4*testPage+3*testRecord {
		t.Fatalf("spare residue: dirty=%v at %d", dirty, off)
	}
}

// The erase that spends a block's last cycle succeeds; the next one
// fails worn out, and the pool retires the block: out of the free pool,
// one block of logical capacity gone, and not an error.
func TestEraseAtEnduranceLimitRetiresAndShrinks(t *testing.T) {
	for _, background := range []bool{false, true} {
		dev, clock, o := testCard(t, 2, nil)
		p, err := New(dev, clock, o, "test", testPage, 1, 0, background,
			func() int { return -1 }, func(int) error { return nil }, noHeads)
		if err != nil {
			t.Fatal(err)
		}
		capacity := p.LogicalPages()
		if want := int64(8-3) * 4; capacity != want {
			t.Fatalf("logical pages %d, want %d (8 blocks less reserve 1 + 2 log heads)", capacity, want)
		}
		for cycle := 0; cycle < 2; cycle++ {
			p.Take(3)
			if freed, err := p.Erase(3); !freed || err != nil {
				t.Fatalf("erase %d: freed=%v err=%v", cycle, freed, err)
			}
		}
		if p.Free() != 8 || p.LogicalPages() != capacity {
			t.Fatalf("before wear-out: free %d capacity %d", p.Free(), p.LogicalPages())
		}
		p.Take(3)
		freed, err := p.Erase(3)
		if freed || err != nil {
			t.Fatalf("worn erase: freed=%v err=%v, want a silent retirement", freed, err)
		}
		if !p.IsRetired(3) || p.IsFree(3) || p.InUse(3) {
			t.Fatal("block 3 not retired")
		}
		st := p.Stats()
		if p.Free() != 7 || st.RetiredBlocks != 1 || p.LogicalPages() != capacity-4 {
			t.Fatalf("after wear-out: free %d retired %d capacity %d", p.Free(), st.RetiredBlocks, p.LogicalPages())
		}
		if err := p.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		// Capacity clamps at zero: 8 blocks retired is more than the 5
		// blocks of logical space there ever were.
		for b := 0; b < 8; b++ {
			if !p.IsRetired(b) {
				p.retire(b)
			}
		}
		if p.Free() != 0 || p.LogicalPages() != 0 {
			t.Fatalf("free %d capacity %d after every block retired", p.Free(), p.LogicalPages())
		}
	}
}

// A pool that never cleans keeps the whole device as logical space.
func TestNoCleanerNoReserve(t *testing.T) {
	dev, clock, o := testCard(t, 0, nil)
	p, err := New(dev, clock, o, "test", testPage, 3, 4, false, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.LogicalPages() != 8*4 {
		t.Fatalf("logical pages %d, want the whole device", p.LogicalPages())
	}
	if err := p.CleanIdle(sim.Forever); err != nil {
		t.Fatal(err)
	}
	if _, err := New(dev, clock, o, "test", testPage, 6, 0, false,
		func() int { return -1 }, func(int) error { return nil }, noHeads); err == nil {
		t.Fatal("reserve 6 + 2 heads accepted on 8 blocks")
	}
	if _, err := New(dev, clock, o, "test", 3000, 1, 0, false, nil, nil, nil); err == nil {
		t.Fatal("page size that does not divide the block accepted")
	}
}

// Mount: a record-free block that fails the blank check is erased again
// as a charged, mount-recovery operation — and if that erase spends the
// block's last cycle, the block retires on the spot instead of going
// back into the free pool worn.
func TestSettleReErasesDirtyBlockThatThenWearsOut(t *testing.T) {
	dev, clock, o := testCard(t, 2, nil)
	// Block 1: one erase of life left, torn residue and no record.
	if _, err := dev.Erase(1); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Program(dev.BlockAddr(1), filled(0x0F, 100)); err != nil {
		t.Fatal(err)
	}
	// Block 2: fresh, but dirty the same way — re-erased and kept.
	if _, err := dev.Program(dev.BlockAddr(2), filled(0x0F, 100)); err != nil {
		t.Fatal(err)
	}
	// Block 4: a sealed record, so it is in use. Block 6: already worn.
	rec := filled(0xA5, testRecord)
	SealRecord(testMagic, 7, rec)
	if _, err := dev.ProgramSpare(4*4+1, rec); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := dev.Erase(6); err != nil {
			t.Fatal(err)
		}
	}
	// Block 7: a torn record — corrupt, and not a reason to keep the block.
	if _, err := dev.ProgramSpare(7*4, rec[:testRecord/2]); err != nil {
		t.Fatal(err)
	}

	p, err := New(dev, clock, o, "test", testPage, 1, 0, true,
		func() int { return -1 }, func(int) error { return nil }, noHeads)
	if err != nil {
		t.Fatal(err)
	}
	capacity := p.LogicalPages()
	erasesBefore := dev.Stats().Erases
	used := make([]bool, 8)
	maxSeq, err := p.ScanRecords(testMagic, testRecord, func(ppn int64, seq uint64, got []byte) {
		if ppn != 4*4+1 || seq != 7 || string(got) != string(rec) {
			t.Errorf("visit ppn %d seq %d", ppn, seq)
		}
		used[ppn/4] = true
	})
	if err != nil || maxSeq != 7 {
		t.Fatalf("scan: maxSeq %d err %v", maxSeq, err)
	}
	before := clock.Now()
	for b := 0; b < 8; b++ {
		if err := p.Settle(b, used[b]); err != nil {
			t.Fatal(err)
		}
	}
	ms := p.MountStats()
	if ms.CorruptRecords != 1 || ms.ReErasedBlocks != 3 || ms.RetiredBlocks != 2 {
		t.Fatalf("mount stats %+v, want 1 corrupt, 3 re-erased (1, 2, 7), 2 retired (1, 6)", ms)
	}
	if !p.IsRetired(1) || !p.IsRetired(6) || !p.InUse(4) || !p.IsFree(2) || !p.IsFree(7) {
		t.Fatal("block states after settle")
	}
	if p.Free() != 5 || p.LogicalPages() != capacity-2*4 {
		t.Fatalf("free %d capacity %d", p.Free(), p.LogicalPages())
	}
	// The re-erases are synchronous charged device work under the
	// mount-recovery cause, even for a pool that erases in the background.
	if got := dev.Stats().Erases - erasesBefore; got != 3 {
		t.Fatalf("%d erases during settle, want 3", got)
	}
	if clock.Now().Sub(before) < 3*sim.Duration(1e6) {
		t.Fatal("re-erases did not advance the clock")
	}
	if got := dev.CauseErases(obs.CauseMountRecovery); got != 3 {
		t.Fatalf("%d erases charged to mount recovery, want 3", got)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// A torn program leaves a prefix of the record over erased bytes. Every
// strict prefix must fail to open — including those that keep the whole
// check word and sequence number — and so must a foreign magic.
func TestSealedRecordRejectsEveryStrictPrefix(t *testing.T) {
	rec := make([]byte, 36)
	for i := range rec {
		rec[i] = byte(0x10 + i) // no 0xFF: every truncation changes the bytes
	}
	SealRecord(testMagic, 0x0102030405060708, rec)
	if seq, ok := OpenRecord(testMagic, rec); !ok || seq != 0x0102030405060708 {
		t.Fatalf("sealed record does not open: seq %x ok %v", seq, ok)
	}
	if _, ok := OpenRecord(testMagic+1, rec); ok {
		t.Fatal("record opens under a foreign magic")
	}
	for k := 0; k < len(rec); k++ {
		torn := filled(0xFF, len(rec))
		copy(torn, rec[:k])
		if _, ok := OpenRecord(testMagic, torn); ok {
			t.Fatalf("%d-byte prefix over erased bytes opens as a record", k)
		}
		if _, ok := OpenRecord(testMagic, rec[:k]); ok {
			t.Fatalf("%d-byte slice opens as a record", k)
		}
	}
}

// The space-pressure loop: cleans until the pool is above the reserve,
// gives up quietly while free blocks remain, fails only when none do,
// and idle cleaning counts and attributes its work separately.
func TestSpacePressureLoop(t *testing.T) {
	dev, clock, o := testCard(t, 0, nil)
	var p *Pool
	victims := []int{}
	var causes []obs.Cause
	p, err := New(dev, clock, o, "test", testPage, 2, 5, false,
		func() int {
			if len(victims) == 0 {
				return -1
			}
			return victims[0]
		},
		func(v int) error {
			victims = victims[1:]
			causes = append(causes, o.Cause())
			_, err := p.Erase(v)
			return err
		}, noHeads)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 6; b++ {
		p.Take(b)
	}
	if p.CleanerLag() != 3 { // idle target 5, 2 free
		t.Fatalf("lag %d", p.CleanerLag())
	}
	// Nothing cleanable but blocks remain: not an error.
	if err := p.EnsureSpace(); err != nil {
		t.Fatal(err)
	}
	victims = []int{0, 1, 2}
	if err := p.EnsureSpace(); err != nil {
		t.Fatal(err)
	}
	if p.Free() != 3 || len(victims) != 2 {
		t.Fatalf("foreground clean stopped at free %d with %d victims left", p.Free(), len(victims))
	}
	// With nobody waiting the idle cleaner runs to its target.
	if err := p.CleanIdle(sim.Forever); err != nil {
		t.Fatal(err)
	}
	if p.Free() != 5 || p.CleanerLag() != 0 {
		t.Fatalf("idle clean stopped at free %d lag %d", p.Free(), p.CleanerLag())
	}
	want := []obs.Cause{obs.CauseCleanerMigrate, obs.CauseIdleClean, obs.CauseIdleClean}
	if len(causes) != len(want) {
		t.Fatalf("causes %v", causes)
	}
	for i := range want {
		if causes[i] != want[i] {
			t.Fatalf("causes %v, want %v", causes, want)
		}
	}
	if st := p.Stats(); st.Cleans != 3 || st.IdleCleans != 2 {
		t.Fatalf("cleans %d idle %d", st.Cleans, st.IdleCleans)
	}
	for b := 0; b < 8; b++ {
		if p.IsFree(b) {
			p.Take(b)
		}
	}
	if err := p.EnsureSpace(); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("empty pool with no victim: %v", err)
	}
}

// The idle-clean contract: the caller states when the idle gap ends, the
// pool starts no clean at or after that, and a clean once started runs to
// completion — so the gap overruns by at most one clean, and only an
// unbounded gap is a promise to reach the target.
func TestCleanIdleYieldsWhenTheGapEnds(t *testing.T) {
	dev, clock, o := testCard(t, 0, nil)
	var p *Pool
	next := 0
	p, err := New(dev, clock, o, "test", testPage, 1, 8, false,
		func() int {
			if next == 8 {
				return -1
			}
			return next
		},
		func(v int) error {
			next++
			_, err := p.Erase(v)
			return err
		}, noHeads)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 8; b++ {
		p.Take(b)
	}
	if p.CleanerLag() != 8 {
		t.Fatalf("lag %d with every block taken and a target of 8", p.CleanerLag())
	}
	idle := func(until sim.Time) (cleans int) {
		t.Helper()
		before := p.Free()
		if err := p.CleanIdle(until); err != nil {
			t.Fatal(err)
		}
		return p.Free() - before
	}

	// A gap that has already ended, or ends this instant, starts nothing.
	clock.Advance(sim.Second)
	for _, until := range []sim.Time{0, clock.Now() - 1, clock.Now()} {
		if n := idle(until); n != 0 {
			t.Fatalf("gap ending at %v ran %d cleans at %v", until, n, clock.Now())
		}
	}
	if got := p.idleYields.Value(); got != 3 {
		t.Fatalf("%d yields counted for three gaps that were over, want 3", got)
	}
	if got := p.idleBurst.Sim().Count(); got != 0 {
		t.Fatalf("%d bursts observed before any clean ran", got)
	}

	// A gap one nanosecond long starts one clean, which runs to its end:
	// that overrun is the length of a clean here.
	start := clock.Now()
	if n := idle(start + 1); n != 1 {
		t.Fatalf("a gap still open ran %d cleans, want 1", n)
	}
	oneClean := clock.Now().Sub(start)
	if oneClean <= 0 {
		t.Fatal("a clean took no virtual time")
	}

	// A gap sized for three cleans runs three; one that ends halfway
	// through the third still runs three, and the clock ends no more than
	// a clean past the gap.
	start = clock.Now()
	until := start.Add(2*oneClean + oneClean/2)
	if n := idle(until); n != 3 {
		t.Fatalf("a gap of 2.5 cleans ran %d, want 3", n)
	}
	if over := clock.Now().Sub(until); over <= 0 || over > oneClean {
		t.Fatalf("gap overran by %v, want within one clean (%v)", over, oneClean)
	}
	if p.Free() != 4 || p.CleanerLag() != 4 {
		t.Fatalf("free %d lag %d after four cleans", p.Free(), p.CleanerLag())
	}
	if got := p.idleYields.Value(); got != 5 {
		t.Fatalf("%d yields counted, want 5 (every call so far left the pool under its target)", got)
	}
	if h := p.idleBurst.Sim(); h.Count() != 2 || h.Sum() != 4 || h.Max() != 3 {
		t.Fatalf("bursts: count %d sum %v max %v, want two bursts of 1 and 3", h.Count(), h.Sum(), h.Max())
	}

	// Nobody waiting: to the target, and that is not a yield.
	if n := idle(sim.Forever); n != 4 || p.CleanerLag() != 0 {
		t.Fatalf("unbounded gap ran %d cleans and left lag %d", n, p.CleanerLag())
	}
	if got := p.idleYields.Value(); got != 5 {
		t.Fatalf("reaching the target counted as a yield (%d)", got)
	}
	if st := p.Stats(); st.IdleCleans != 8 || st.Cleans != 8 {
		t.Fatalf("idle cleans %d of %d", st.IdleCleans, st.Cleans)
	}
}

// The bank question and the record of its two uses: a bank is idle until
// something is issued to it in the background and again once the clock
// passes that; a bank's class as a place to erase is busy, else idle when
// a log head is open in it, else quiet; every clean is counted under the
// class its victim's bank had, and every head taken where the card was
// busy is counted too.
func TestBankClassesAndTheirRecord(t *testing.T) {
	clock := sim.NewClock()
	o := obs.New(0)
	dev, err := flash.New(flash.Config{
		Banks: 4, BlocksPerBank: 2, BlockBytes: 4 * testPage, Params: device.IntelFlash, Obs: o,
	}, clock, sim.NewEnergyMeter())
	if err != nil {
		t.Fatal(err)
	}
	headA, headB := -1, -1
	var p *Pool
	p, err = New(dev, clock, o, "test", testPage, 1, 0, true,
		func() int { return -1 },
		func(v int) error { _, err := p.Erase(v); return err },
		func() (int, int) { return headA, headB })
	if err != nil {
		t.Fatal(err)
	}
	classes := func() [4]VictimClass { return [4]VictimClass(p.VictimClasses()) }
	count := func(class string) int64 {
		return o.Registry.Counter("victim_bank_class_total", obs.Labels{"layer": "test", "class": class}).Value()
	}
	busyHeads := o.Registry.Counter("head_opened_in_busy_bank_total", obs.Labels{"layer": "test"})

	// A fresh card with no head open: every bank quiet.
	if got := classes(); got != [4]VictimClass{Quiet, Quiet, Quiet, Quiet} {
		t.Fatalf("fresh card: %v", got)
	}
	// Heads in banks 1 and 2 (blocks 2 and 5), every block taken.
	for b := 0; b < 8; b++ {
		p.Take(b)
	}
	headA, headB = 2, 5
	if got := classes(); got != [4]VictimClass{Quiet, Idle, Idle, Quiet} {
		t.Fatalf("heads in banks 1 and 2: %v", got)
	}
	// Cleaning block 0 erases it in the background: bank 0 is busy for
	// the 1.6 s of the erase, whoever else is in it, and idle after.
	if err := p.Clean(0); err != nil {
		t.Fatal(err)
	}
	if p.BankIdle(0) || !p.BankIdle(1) {
		t.Fatal("bank 0 should be erasing and bank 1 not")
	}
	if got := classes(); got != [4]VictimClass{Busy, Idle, Idle, Quiet} {
		t.Fatalf("bank 0 erasing: %v", got)
	}
	// One clean in each class, then a head opened on the block still
	// erasing and one opened on an idle bank.
	for _, victim := range []int{1, 3, 6} { // banks 0 (busy), 1 (a head's), 3 (quiet)
		if err := p.Clean(victim); err != nil {
			t.Fatal(err)
		}
	}
	if q, i, b := count("quiet"), count("idle"), count("busy"); q != 2 || i != 1 || b != 1 {
		t.Fatalf("cleans by class: quiet %d idle %d busy %d, want 2 1 1", q, i, b)
	}
	if busyHeads.Value() != 0 {
		t.Fatalf("%d busy heads before any was opened busy", busyHeads.Value())
	}
	p.Take(0)
	if busyHeads.Value() != 1 {
		t.Fatalf("head on an erasing block: counted %d", busyHeads.Value())
	}
	clock.Advance(4 * sim.Second) // the queued erases are over
	p.Take(1)
	if busyHeads.Value() != 1 {
		t.Fatalf("head on an idle bank counted as busy: %d", busyHeads.Value())
	}
	if got := classes(); got != [4]VictimClass{Quiet, Idle, Idle, Quiet} {
		t.Fatalf("after the erases: %v", got)
	}
}

// The ranking itself: a better class beats any score, a better score
// wins inside a class, and equal candidates go to the lowest block id
// whatever order they are offered in.
func TestVictimOfferRanksClassThenScoreThenBlock(t *testing.T) {
	if v := NoVictim(); v.Block != -1 {
		t.Fatalf("empty selection names block %d", v.Block)
	}
	type cand struct {
		block int
		class VictimClass
		score float64
	}
	for _, tc := range []struct {
		name  string
		offer []cand
		want  int
	}{
		{"class beats score", []cand{{3, Busy, 100}, {9, Idle, 1}, {5, Quiet, -7}}, 5},
		{"score inside a class", []cand{{3, Quiet, 1}, {9, Quiet, 2}, {5, Idle, 50}}, 9},
		{"lowest id on a tie, offered last", []cand{{9, Idle, 2}, {3, Idle, 2}}, 3},
		{"lowest id on a tie, offered first", []cand{{3, Idle, 2}, {9, Idle, 2}}, 3},
		{"only busy banks", []cand{{4, Busy, 1}, {2, Busy, 3}}, 2},
	} {
		v := NoVictim()
		for _, c := range tc.offer {
			v.Offer(c.block, c.class, c.score)
		}
		if v.Block != tc.want {
			t.Errorf("%s: picked block %d, want %d", tc.name, v.Block, tc.want)
		}
	}
}
