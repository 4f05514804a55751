package ftl

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"ssmobile/internal/device"
	"ssmobile/internal/flash"
	"ssmobile/internal/sim"
)

// smallFlash builds a 2-bank, 64-block, 4KB-block device with fast
// parameters so endurance tests run quickly.
func smallFlash(t testing.TB, endurance int64) (*flash.Device, *sim.Clock) {
	t.Helper()
	clock := sim.NewClock()
	params := device.IntelFlash
	params.EnduranceCycles = endurance
	params.EraseLatencyNs = 1e6 // shrink erase so long runs stay fast
	dev, err := flash.New(flash.Config{
		Banks:         2,
		BlocksPerBank: 32,
		BlockBytes:    4096,
		Params:        params,
	}, clock, sim.NewEnergyMeter())
	if err != nil {
		t.Fatal(err)
	}
	return dev, clock
}

func newFTL(t testing.TB, policy Policy, hotCold bool) (*FTL, *sim.Clock) {
	t.Helper()
	dev, clock := smallFlash(t, 0)
	f, err := New(dev, clock, Config{
		PageBytes:     1024,
		ReserveBlocks: 3,
		Policy:        policy,
		HotCold:       hotCold,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f, clock
}

func page(b byte, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = b
	}
	return p
}

func TestPolicyString(t *testing.T) {
	for p, want := range map[Policy]string{
		PolicyDirect: "direct", PolicyFIFO: "fifo",
		PolicyGreedy: "greedy", PolicyCostBenefit: "cost-benefit",
	} {
		if p.String() != want {
			t.Errorf("%d.String() = %q", int(p), p.String())
		}
	}
}

func TestConfigRejected(t *testing.T) {
	dev, clock := smallFlash(t, 0)
	if _, err := New(dev, clock, Config{PageBytes: 3000}); err == nil {
		t.Error("page size not dividing block size accepted")
	}
	if _, err := New(dev, clock, Config{PageBytes: 1024, ReserveBlocks: 64, Policy: PolicyGreedy}); err == nil {
		t.Error("reserve eating whole device accepted")
	}
}

func TestWriteReadBack(t *testing.T) {
	for _, policy := range []Policy{PolicyDirect, PolicyFIFO, PolicyGreedy, PolicyCostBenefit} {
		t.Run(policy.String(), func(t *testing.T) {
			f, _ := newFTL(t, policy, false)
			want := page(0xAB, f.PageBytes())
			if err := f.WritePage(7, want); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, f.PageBytes())
			if err := f.ReadPage(7, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("read back mismatch")
			}
		})
	}
}

func TestOverwriteWithoutExplicitErase(t *testing.T) {
	// The whole point of the layer: hosts overwrite freely, the layer
	// handles flash's erase rule.
	for _, policy := range []Policy{PolicyDirect, PolicyGreedy, PolicyCostBenefit} {
		t.Run(policy.String(), func(t *testing.T) {
			f, _ := newFTL(t, policy, false)
			for i := byte(0); i < 10; i++ {
				if err := f.WritePage(3, page(i, f.PageBytes())); err != nil {
					t.Fatalf("overwrite %d: %v", i, err)
				}
			}
			got := make([]byte, f.PageBytes())
			if err := f.ReadPage(3, got); err != nil {
				t.Fatal(err)
			}
			if got[0] != 9 {
				t.Fatalf("last write lost, got %d", got[0])
			}
		})
	}
}

func TestUnwrittenPageReadsErased(t *testing.T) {
	f, _ := newFTL(t, PolicyCostBenefit, false)
	buf := make([]byte, f.PageBytes())
	if err := f.ReadPage(11, buf); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0xFF {
			t.Fatal("unwritten page not erased-looking")
		}
	}
	if f.Mapped(11) {
		t.Fatal("unwritten page reported mapped")
	}
}

func TestBadArguments(t *testing.T) {
	f, _ := newFTL(t, PolicyCostBenefit, false)
	if err := f.WritePage(-1, page(0, f.PageBytes())); !errors.Is(err, ErrBadPage) {
		t.Error("negative lpn accepted")
	}
	if err := f.WritePage(f.LogicalPages(), page(0, f.PageBytes())); !errors.Is(err, ErrBadPage) {
		t.Error("lpn past capacity accepted")
	}
	if err := f.WritePage(0, page(0, 10)); !errors.Is(err, ErrBadSize) {
		t.Error("short write accepted")
	}
	if err := f.ReadPage(0, make([]byte, 10)); !errors.Is(err, ErrBadSize) {
		t.Error("short read buffer accepted")
	}
	if err := f.TrimPage(-3); !errors.Is(err, ErrBadPage) {
		t.Error("bad trim accepted")
	}
}

func TestLogicalCapacitySmallerThanDeviceForLogPolicies(t *testing.T) {
	f, _ := newFTL(t, PolicyCostBenefit, false)
	if f.LogicalBytes() >= f.Device().Capacity() {
		t.Fatal("log policy should reserve space")
	}
	d, _ := newFTL(t, PolicyDirect, false)
	if d.LogicalBytes() != d.Device().Capacity() {
		t.Fatal("direct policy should expose the whole device")
	}
}

func TestFillDeviceToLogicalCapacity(t *testing.T) {
	f, _ := newFTL(t, PolicyGreedy, false)
	for lpn := int64(0); lpn < f.LogicalPages(); lpn++ {
		if err := f.WritePage(lpn, page(byte(lpn), f.PageBytes())); err != nil {
			t.Fatalf("write %d/%d: %v", lpn, f.LogicalPages(), err)
		}
	}
	// Overwrites must still succeed when completely full.
	for lpn := int64(0); lpn < 20; lpn++ {
		if err := f.WritePage(lpn, page(0xEE, f.PageBytes())); err != nil {
			t.Fatalf("overwrite when full: %v", err)
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCleaningPreservesData(t *testing.T) {
	f, _ := newFTL(t, PolicyCostBenefit, true)
	// Fill most of the space, then hammer a small hot set to force many
	// cleans, then verify every cold page survived.
	n := f.LogicalPages()
	for lpn := int64(0); lpn < n; lpn++ {
		if err := f.WritePage(lpn, page(byte(lpn%251), f.PageBytes())); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i++ {
		lpn := int64(i % 5)
		if err := f.WritePage(lpn, page(byte(i%251), f.PageBytes())); err != nil {
			t.Fatal(err)
		}
	}
	if f.Stats().Cleans == 0 {
		t.Fatal("workload did not trigger cleaning")
	}
	buf := make([]byte, f.PageBytes())
	for lpn := int64(5); lpn < n; lpn += 97 {
		if err := f.ReadPage(lpn, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(lpn%251) {
			t.Fatalf("page %d corrupted by cleaning: %d", lpn, buf[0])
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTrimFreesSpace(t *testing.T) {
	f, _ := newFTL(t, PolicyGreedy, false)
	for lpn := int64(0); lpn < f.LogicalPages(); lpn++ {
		if err := f.WritePage(lpn, page(1, f.PageBytes())); err != nil {
			t.Fatal(err)
		}
	}
	for lpn := int64(0); lpn < f.LogicalPages(); lpn++ {
		if err := f.TrimPage(lpn); err != nil {
			t.Fatal(err)
		}
		if f.Mapped(lpn) {
			t.Fatal("trimmed page still mapped")
		}
	}
	// Everything is dead; a full rewrite must succeed.
	for lpn := int64(0); lpn < f.LogicalPages(); lpn++ {
		if err := f.WritePage(lpn, page(2, f.PageBytes())); err != nil {
			t.Fatalf("rewrite after trim: %v", err)
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNoSpaceWhenOverfullWithoutTrim(t *testing.T) {
	dev, clock := smallFlash(t, 0)
	f, err := New(dev, clock, Config{PageBytes: 4096, ReserveBlocks: 1, Policy: PolicyGreedy})
	if err != nil {
		t.Fatal(err)
	}
	// With PageBytes == BlockBytes every page is its own block. Filling
	// all logical pages then... there is nothing beyond logical capacity,
	// so instead check that out-of-range pages fail rather than eating
	// reserve.
	for lpn := int64(0); lpn < f.LogicalPages(); lpn++ {
		if err := f.WritePage(lpn, page(1, 4096)); err != nil {
			t.Fatalf("fill: %v", err)
		}
	}
	if err := f.WritePage(f.LogicalPages(), page(1, 4096)); !errors.Is(err, ErrBadPage) {
		t.Fatalf("expected ErrBadPage, got %v", err)
	}
}

func TestDirectPolicyWearsHotBlock(t *testing.T) {
	f, _ := newFTL(t, PolicyDirect, false)
	for i := 0; i < 50; i++ {
		if err := f.WritePage(0, page(byte(i), f.PageBytes())); err != nil {
			t.Fatal(err)
		}
	}
	dev := f.Device()
	if got := dev.EraseCount(0); got < 45 {
		t.Errorf("hot block erased %d times, want ~49", got)
	}
	if got := dev.EraseCount(1); got != 0 {
		t.Errorf("cold block erased %d times, want 0", got)
	}
}

func TestLogPolicySpreadsWear(t *testing.T) {
	f, _ := newFTL(t, PolicyCostBenefit, true)
	// Same hot workload as the direct test, but much longer.
	for i := 0; i < 2000; i++ {
		if err := f.WritePage(int64(i%4), page(byte(i), f.PageBytes())); err != nil {
			t.Fatal(err)
		}
	}
	counts := f.Device().EraseCounts()
	cov := sim.CoV(counts)
	if cov > 1.5 {
		t.Errorf("erase-count CoV %.2f; log-structured policy should spread wear", cov)
	}
}

func TestWearLevelingBeatsDirectOnSkewedWrites(t *testing.T) {
	run := func(policy Policy, hotCold bool) float64 {
		dev, clock := smallFlash(t, 0)
		f, err := New(dev, clock, Config{PageBytes: 1024, ReserveBlocks: 3, Policy: policy, HotCold: hotCold})
		if err != nil {
			t.Fatal(err)
		}
		g := sim.NewRNG(77)
		z := g.Zipf(1.3, uint64(f.LogicalPages()))
		for i := 0; i < 4000; i++ {
			if err := f.WritePage(int64(z.Next()), page(byte(i), 1024)); err != nil {
				t.Fatal(err)
			}
		}
		return sim.CoV(dev.EraseCounts())
	}
	direct := run(PolicyDirect, false)
	leveled := run(PolicyCostBenefit, true)
	if leveled >= direct {
		t.Errorf("cost-benefit CoV %.2f not below direct CoV %.2f", leveled, direct)
	}
}

func TestEnduranceRetirement(t *testing.T) {
	dev, clock := smallFlash(t, 25)
	f, err := New(dev, clock, Config{PageBytes: 1024, ReserveBlocks: 3, Policy: PolicyDirect})
	if err != nil {
		t.Fatal(err)
	}
	var wearErr error
	for i := 0; i < 100; i++ {
		if err := f.WritePage(0, page(byte(i), 1024)); err != nil {
			wearErr = err
			break
		}
	}
	if !errors.Is(wearErr, ErrDeviceWorn) {
		t.Fatalf("hot direct writes should wear out: %v", wearErr)
	}
	if s, w := f.Stats(), f.WearStats(); s.RetiredBlocks != 1 || w.FirstWearOut == 0 {
		t.Fatalf("wear stats %+v %+v", s, w)
	}
}

func TestLogPolicySurvivesLongPastDirectWearout(t *testing.T) {
	// With the same tiny endurance, the leveled layer should absorb far
	// more writes before losing a block than the direct layer.
	hostBytesUntilWear := func(policy Policy, hotCold bool) int64 {
		dev, clock := smallFlash(t, 25)
		f, err := New(dev, clock, Config{PageBytes: 1024, ReserveBlocks: 3, Policy: policy, HotCold: hotCold})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; ; i++ {
			if err := f.WritePage(int64(i%4), page(byte(i), 1024)); err != nil {
				break
			}
			if f.Stats().RetiredBlocks > 0 {
				return f.WearStats().FirstWearOutHostBytes
			}
			if i > 2_000_000 {
				return 1 << 62 // effectively never
			}
		}
		return f.WearStats().FirstWearOutHostBytes
	}
	direct := hostBytesUntilWear(PolicyDirect, false)
	leveled := hostBytesUntilWear(PolicyCostBenefit, true)
	if leveled < 4*direct {
		t.Errorf("leveled lifetime %d bytes < 4x direct %d bytes", leveled, direct)
	}
}

func TestWriteAmplificationReported(t *testing.T) {
	f, _ := newFTL(t, PolicyGreedy, false)
	for i := 0; i < 500; i++ {
		if err := f.WritePage(int64(i)%f.LogicalPages(), page(byte(i), f.PageBytes())); err != nil {
			t.Fatal(err)
		}
	}
	s := f.Stats()
	if s.HostWrites != 500 || s.HostBytesWritten != 500*1024 {
		t.Fatalf("host stats %+v", s)
	}
	if s.WriteAmplification < 1 {
		t.Fatalf("write amplification %.2f below 1", s.WriteAmplification)
	}
}

func TestBackgroundEraseDoesNotStallWriter(t *testing.T) {
	mk := func(bg bool) sim.Duration {
		dev, clock := smallFlash(t, 0)
		f, err := New(dev, clock, Config{PageBytes: 1024, ReserveBlocks: 3, Policy: PolicyGreedy, BackgroundErase: bg})
		if err != nil {
			t.Fatal(err)
		}
		start := clock.Now()
		for i := 0; i < 3000; i++ {
			if err := f.WritePage(int64(i%8), page(byte(i), 1024)); err != nil {
				t.Fatal(err)
			}
		}
		return clock.Now().Sub(start)
	}
	fg := mk(false)
	bg := mk(true)
	if bg >= fg {
		t.Errorf("background erase elapsed %v not below foreground %v", bg, fg)
	}
}

func TestStaticWearLeveling(t *testing.T) {
	run := func(threshold int64) (wearDelta int64, coldMoved bool, f *FTL) {
		dev, clock := smallFlash(t, 0)
		f, err := New(dev, clock, Config{
			PageBytes: 1024, ReserveBlocks: 3,
			Policy: PolicyCostBenefit, HotCold: true,
			WearDeltaThreshold: threshold,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Cold data fills a third of the space and is never touched again.
		coldPages := f.LogicalPages() / 3
		for lpn := int64(0); lpn < coldPages; lpn++ {
			if err := f.WritePage(lpn, page(0xC0, 1024)); err != nil {
				t.Fatal(err)
			}
		}
		// A hot set hammers the rest.
		for i := 0; i < 12000; i++ {
			lpn := coldPages + int64(i%8)
			if err := f.WritePage(lpn, page(byte(i), 1024)); err != nil {
				t.Fatal(err)
			}
		}
		counts := dev.EraseCounts()
		var min, max int64 = 1 << 62, 0
		for b := 0; b < dev.NumBlocks(); b++ {
			if f.pool.IsRetired(b) {
				continue
			}
			c := counts[b]
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		return max - min, f.WearStats().StaticMoves > 0, f
	}

	deltaOff, movedOff, _ := run(0)
	deltaOn, movedOn, fOn := run(8)
	if movedOff {
		t.Fatal("static moves happened with leveling disabled")
	}
	if !movedOn {
		t.Fatal("no static moves with leveling enabled")
	}
	if deltaOn >= deltaOff {
		t.Errorf("wear delta with leveling %d not below %d without", deltaOn, deltaOff)
	}
	// Cold data must still be intact after being shuffled around.
	buf := make([]byte, 1024)
	for lpn := int64(0); lpn < fOn.LogicalPages()/3; lpn += 13 {
		if err := fOn.ReadPage(lpn, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != 0xC0 {
			t.Fatalf("cold page %d corrupted by static leveling: %x", lpn, buf[0])
		}
	}
	if err := fOn.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestIdleCleaning(t *testing.T) {
	dev, clock := smallFlash(t, 0)
	f, err := New(dev, clock, Config{
		PageBytes: 1024, ReserveBlocks: 3,
		Policy:             PolicyGreedy,
		IdleCleanThreshold: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Dirty most of the device, then trim half so plenty is cleanable.
	for lpn := int64(0); lpn < f.LogicalPages(); lpn++ {
		if err := f.WritePage(lpn, page(1, 1024)); err != nil {
			t.Fatal(err)
		}
	}
	for lpn := int64(0); lpn < f.LogicalPages(); lpn += 2 {
		if err := f.TrimPage(lpn); err != nil {
			t.Fatal(err)
		}
	}
	before := f.FreeBlocks()
	// A gap that is already over starts no clean; one with nobody
	// waiting at its end runs to the threshold.
	if err := f.CleanIdle(clock.Now()); err != nil {
		t.Fatal(err)
	}
	if f.FreeBlocks() != before || f.Stats().IdleCleans != 0 {
		t.Fatalf("an idle gap of no length cleaned: %d free (had %d), %d idle cleans",
			f.FreeBlocks(), before, f.Stats().IdleCleans)
	}
	if err := f.CleanIdle(sim.Forever); err != nil {
		t.Fatal(err)
	}
	if f.FreeBlocks() < 10 {
		t.Fatalf("idle cleaning left only %d free blocks (had %d)", f.FreeBlocks(), before)
	}
	if f.Stats().IdleCleans == 0 {
		t.Fatal("no idle cleans counted")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Data still correct.
	buf := make([]byte, 1024)
	for lpn := int64(1); lpn < f.LogicalPages(); lpn += 17 {
		if lpn%2 == 0 {
			continue
		}
		if err := f.ReadPage(lpn, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != 1 {
			t.Fatalf("page %d corrupted by idle cleaning", lpn)
		}
	}
}

func TestIdleCleaningDisabledByDefault(t *testing.T) {
	f, _ := newFTL(t, PolicyGreedy, false)
	if err := f.CleanIdle(sim.Forever); err != nil {
		t.Fatal(err)
	}
	if f.Stats().IdleCleans != 0 {
		t.Fatal("idle cleaning ran with zero threshold")
	}
}

// Property: a random mix of writes and trims over a small logical space
// matches a map model, and invariants hold throughout.
func TestFTLModelProperty(t *testing.T) {
	type op struct {
		LPN  uint16
		Val  byte
		Trim bool
	}
	f := func(ops []op, policyPick uint8, hotCold bool) bool {
		policy := []Policy{PolicyFIFO, PolicyGreedy, PolicyCostBenefit}[int(policyPick)%3]
		dev, clock := smallFlash(t, 0)
		l, err := New(dev, clock, Config{PageBytes: 1024, ReserveBlocks: 3, Policy: policy, HotCold: hotCold})
		if err != nil {
			return false
		}
		model := map[int64]byte{}
		for _, o := range ops {
			lpn := int64(o.LPN) % l.LogicalPages()
			if o.Trim {
				if err := l.TrimPage(lpn); err != nil {
					return false
				}
				delete(model, lpn)
			} else {
				if err := l.WritePage(lpn, page(o.Val, 1024)); err != nil {
					return false
				}
				model[lpn] = o.Val
			}
		}
		if err := l.CheckInvariants(); err != nil {
			t.Logf("invariant: %v", err)
			return false
		}
		buf := make([]byte, 1024)
		for lpn, want := range model {
			if err := l.ReadPage(lpn, buf); err != nil {
				return false
			}
			if buf[0] != want {
				t.Logf("lpn %d = %d, want %d", lpn, buf[0], want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
