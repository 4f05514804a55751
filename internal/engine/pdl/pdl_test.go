package pdl

import (
	"bytes"
	"math/rand"
	"testing"

	"ssmobile/internal/device"
	"ssmobile/internal/engine"
	"ssmobile/internal/flash"
	"ssmobile/internal/obs"
	"ssmobile/internal/sim"
)

const testPage = 4096

type rig struct {
	clock *sim.Clock
	meter *sim.EnergyMeter
	dev   *flash.Device
	e     *Engine
}

func newRig(t testing.TB, cfg Config) *rig {
	t.Helper()
	clock := sim.NewClock()
	meter := sim.NewEnergyMeter()
	params := device.IntelFlash
	params.EraseLatencyNs = 1e6
	dev, err := flash.New(flash.Config{
		Banks: 2, BlocksPerBank: 16, BlockBytes: 16 * 1024, Params: params,
		SpareUnitBytes: testPage, SpareBytes: unitRecordBytes,
	}, clock, meter)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.PageBytes == 0 {
		cfg.PageBytes = testPage
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.New(0)
	}
	e, err := New(dev, clock, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{clock: clock, meter: meter, dev: dev, e: e}
}

func tagOf(b byte) engine.Tag {
	var t engine.Tag
	t[0] = b
	return t
}

// TestPropertyAgainstModel drives the engine with a seeded random mix of
// full writes, small overwrites (the delta path), identical rewrites,
// trims, tag changes and idle cleans, checking every page against an
// in-memory model and the structural invariants as it goes — then
// remounts from the device scan and checks the model again. This is the
// whole engine contract in one test: what you wrote is what you read,
// before and after recovery.
func TestPropertyAgainstModel(t *testing.T) {
	r := newRig(t, Config{ReserveBlocks: 3, MaxChain: 4, IdleCleanThreshold: 8, BackgroundErase: true})
	e := r.e
	rng := rand.New(rand.NewSource(1993))
	const lpns = 40 // well under logical capacity, hot enough to force cleaning

	model := make(map[int64][]byte)
	tags := make(map[int64]engine.Tag)
	buf := make([]byte, testPage)
	page := make([]byte, testPage)

	for op := 0; op < 4000; op++ {
		lpn := int64(rng.Intn(lpns))
		switch k := rng.Intn(100); {
		case k < 45: // small overwrite: mutate a narrow range of the current image
			cur, ok := model[lpn]
			if !ok {
				cur = bytes.Repeat([]byte{0xFF}, testPage)
			}
			copy(page, cur)
			off := rng.Intn(testPage - 64)
			n := 1 + rng.Intn(64)
			for i := 0; i < n; i++ {
				page[off+i] = byte(rng.Intn(256))
			}
			tg := tags[lpn]
			if err := e.WritePageTagged(lpn, page, tg); err != nil {
				t.Fatalf("op %d: overwrite: %v", op, err)
			}
			model[lpn] = append([]byte(nil), page...)
		case k < 70: // full random write, occasionally with a new tag
			rng.Read(page)
			tg := tags[lpn]
			if rng.Intn(4) == 0 {
				tg = tagOf(byte(rng.Intn(8)))
			}
			if err := e.WritePageTagged(lpn, page, tg); err != nil {
				t.Fatalf("op %d: write: %v", op, err)
			}
			model[lpn] = append([]byte(nil), page...)
			tags[lpn] = tg
		case k < 78: // identical rewrite: must be a no-op on flash
			cur, ok := model[lpn]
			if !ok {
				break
			}
			before := e.dev.Stats().BytesProgrammed
			if err := e.WritePageTagged(lpn, cur, tags[lpn]); err != nil {
				t.Fatalf("op %d: identical rewrite: %v", op, err)
			}
			if after := e.dev.Stats().BytesProgrammed; after != before {
				t.Fatalf("op %d: identical rewrite programmed %d flash bytes", op, after-before)
			}
		case k < 88: // trim
			if err := e.TrimPage(lpn); err != nil {
				t.Fatalf("op %d: trim: %v", op, err)
			}
			delete(model, lpn)
			delete(tags, lpn)
		default: // idle clean
			if err := e.CleanIdle(); err != nil {
				t.Fatalf("op %d: idle clean: %v", op, err)
			}
		}
		// Read-verify a random page every step; full sweep periodically.
		probe := int64(rng.Intn(lpns))
		if err := e.ReadPage(probe, buf); err != nil {
			t.Fatalf("op %d: read %d: %v", op, probe, err)
		}
		want, ok := model[probe]
		if !ok {
			want = bytes.Repeat([]byte{0xFF}, testPage)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("op %d: page %d diverged from model (mapped=%v)", op, probe, ok)
		}
		if ok && e.TagOf(probe) != tags[probe] {
			t.Fatalf("op %d: page %d tag %v want %v", op, probe, e.TagOf(probe), tags[probe])
		}
		if op%200 == 0 {
			if err := e.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if e.DeltaWrites() == 0 {
		t.Fatal("workload never took the delta path; the test is not exercising differential logging")
	}
	if e.Promotions() == 0 {
		t.Fatal("workload never promoted a chain; bounds are not exercised")
	}
	if e.Stats().Cleans == 0 {
		t.Fatal("workload never cleaned; relocation paths are not exercised")
	}

	// Remount from the device scan: the rebuilt engine must agree with
	// the model byte for byte, tag for tag.
	e2, err := Mount(r.dev, r.clock, Config{
		PageBytes: testPage, ReserveBlocks: 3, MaxChain: 4,
		IdleCleanThreshold: 8, BackgroundErase: true, Obs: obs.New(0),
	})
	if err != nil {
		t.Fatalf("remount: %v", err)
	}
	for lpn := int64(0); lpn < lpns; lpn++ {
		if err := e2.ReadPage(lpn, buf); err != nil {
			t.Fatalf("remount read %d: %v", lpn, err)
		}
		want, ok := model[lpn]
		if !ok {
			// A trimmed page may resurrect with its old bytes (the
			// records outlive the trim until cleaning), but never with
			// bytes it did not hold; an unmapped page must read erased.
			if e2.Mapped(lpn) {
				continue
			}
			want = bytes.Repeat([]byte{0xFF}, testPage)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("remount: page %d diverged from model", lpn)
		}
		if ok && e2.TagOf(lpn) != tags[lpn] {
			t.Fatalf("remount: page %d tag %v want %v", lpn, e2.TagOf(lpn), tags[lpn])
		}
	}
}

// TestDeltaPathProgramsLessThanAPage is the engine's reason to exist: a
// small overwrite must program far fewer flash bytes than rewriting the
// page.
func TestDeltaPathProgramsLessThanAPage(t *testing.T) {
	r := newRig(t, Config{ReserveBlocks: 3})
	e := r.e
	page := bytes.Repeat([]byte{0xAB}, testPage)
	if err := e.WritePageTagged(3, page, engine.Tag{}); err != nil {
		t.Fatal(err)
	}
	before := e.dev.Stats().BytesProgrammed
	page[100] = 0xCD // one-byte change
	if err := e.WritePageTagged(3, page, engine.Tag{}); err != nil {
		t.Fatal(err)
	}
	programmed := e.dev.Stats().BytesProgrammed - before
	if programmed >= testPage/4 {
		t.Fatalf("one-byte overwrite programmed %d bytes; differential logging is not engaging", programmed)
	}
	if e.DeltaWrites() != 1 {
		t.Fatalf("delta writes = %d, want 1", e.DeltaWrites())
	}
	buf := make([]byte, testPage)
	if err := e.ReadPage(3, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, page) {
		t.Fatal("read after delta write diverged")
	}
}

// TestChainBoundPromotes checks MaxChain: the overwrite after the bound
// writes a fresh base and empties the chain.
func TestChainBoundPromotes(t *testing.T) {
	r := newRig(t, Config{ReserveBlocks: 3, MaxChain: 3})
	e := r.e
	page := bytes.Repeat([]byte{0x00}, testPage)
	if err := e.WritePageTagged(0, page, engine.Tag{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		page[i] = 0xEE
		if err := e.WritePageTagged(0, page, engine.Tag{}); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(e.pages[0].chain); n != 3 {
		t.Fatalf("chain length %d, want 3", n)
	}
	page[500] = 0xEE
	if err := e.WritePageTagged(0, page, engine.Tag{}); err != nil {
		t.Fatal(err)
	}
	if n := len(e.pages[0].chain); n != 0 {
		t.Fatalf("chain length %d after promotion, want 0", n)
	}
	if e.Promotions() != 1 {
		t.Fatalf("promotions = %d, want 1", e.Promotions())
	}
}

// TestLargeDiffWritesBase checks PromoteBytes: a diff at or past the
// bound skips the delta path entirely.
func TestLargeDiffWritesBase(t *testing.T) {
	r := newRig(t, Config{ReserveBlocks: 3, PromoteBytes: 512})
	e := r.e
	page := bytes.Repeat([]byte{0x00}, testPage)
	if err := e.WritePageTagged(0, page, engine.Tag{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1024; i++ {
		page[i] = 0x77
	}
	if err := e.WritePageTagged(0, page, engine.Tag{}); err != nil {
		t.Fatal(err)
	}
	if e.DeltaWrites() != 0 {
		t.Fatalf("large diff took the delta path (%d delta writes)", e.DeltaWrites())
	}
	if e.Promotions() != 1 {
		t.Fatalf("promotions = %d, want 1", e.Promotions())
	}
}

// TestMountTornDeltaRecord plants a torn delta record (bad CRC) behind a
// valid one and checks the scan keeps the valid prefix, drops the tail,
// and counts the corruption.
func TestMountTornDeltaRecord(t *testing.T) {
	r := newRig(t, Config{ReserveBlocks: 3})
	e := r.e
	page := bytes.Repeat([]byte{0x10}, testPage)
	if err := e.WritePageTagged(5, page, engine.Tag{}); err != nil {
		t.Fatal(err)
	}
	page[0] = 0x11
	if err := e.WritePageTagged(5, page, engine.Tag{}); err != nil {
		t.Fatal(err)
	}
	// Corrupt flash directly where the NEXT record would land: simulate a
	// torn program by landing a half-written header after the live record.
	d := e.pages[5].chain[0]
	torn := d.addr + int64(d.rec)
	if _, err := r.dev.Program(torn, []byte{0x42}); err != nil { // non-blank, CRC cannot match
		t.Fatal(err)
	}
	e2, err := Mount(r.dev, r.clock, Config{PageBytes: testPage, ReserveBlocks: 3, Obs: obs.New(0)})
	if err != nil {
		t.Fatalf("mount with torn record: %v", err)
	}
	if e2.MountStats().CorruptRecords == 0 {
		t.Fatal("torn record not counted")
	}
	buf := make([]byte, testPage)
	if err := e2.ReadPage(5, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, page) {
		t.Fatal("valid delta prefix lost behind the torn record")
	}
}

// TestCapacityMatchesFTLFormula pins the logical-capacity formula both
// engines share, so E15 compares equal-sized devices.
func TestCapacityMatchesFTLFormula(t *testing.T) {
	r := newRig(t, Config{ReserveBlocks: 3})
	ppb := int64(16 * 1024 / testPage)
	want := int64(32)*ppb - (3+2)*ppb
	if got := r.e.LogicalPages(); got != want {
		t.Fatalf("logical pages %d, want %d", got, want)
	}
}

// TestWearOutKeepsTruncatedTailConsistent pins the wear-out tail: when a
// block retires the logical capacity shrinks, but a page mapped in the
// truncated tail still owns a live base unit. The cleaner and the
// invariant checker must keep seeing it — walking only the shrunken
// capacity left the page counted in its block's live bases yet never
// relocated or tallied, so cleaning that block would erase a live base.
func TestWearOutKeepsTruncatedTailConsistent(t *testing.T) {
	clock := sim.NewClock()
	params := device.IntelFlash
	params.EraseLatencyNs = 1e6
	params.EnduranceCycles = 20
	dev, err := flash.New(flash.Config{
		Banks: 2, BlocksPerBank: 16, BlockBytes: 16 * 1024, Params: params,
		SpareUnitBytes: testPage, SpareBytes: unitRecordBytes,
	}, clock, sim.NewEnergyMeter())
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(dev, clock, Config{PageBytes: testPage, ReserveBlocks: 3, Obs: obs.New(0)})
	if err != nil {
		t.Fatal(err)
	}
	tail := e.LogicalPages() - 1
	page := make([]byte, testPage)
	if err := e.WritePageTagged(tail, page, tagOf(1)); err != nil {
		t.Fatal(err)
	}
	// Churn a few hot pages with full-page changes (every write a fresh
	// base) until blocks start wearing out, then well past it so the
	// cleaner keeps running over the shrunken capacity.
	for i := 0; e.Stats().RetiredBlocks < 3; i++ {
		if i > 200000 {
			t.Fatal("no block retired")
		}
		for j := range page {
			page[j] = byte(i)
		}
		if err := e.WritePageTagged(int64(i%8), page, tagOf(2)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if e.Stats().RetiredBlocks > 0 {
			if err := e.CheckInvariants(); err != nil {
				t.Fatalf("after write %d with %d blocks retired: %v", i, e.Stats().RetiredBlocks, err)
			}
		}
	}
	if tail < e.LogicalPages() {
		t.Fatalf("tail page %d still inside the shrunken capacity %d", tail, e.LogicalPages())
	}
	// The host can no longer address the tail page, but its image must
	// have survived every clean of the blocks it lived in.
	got := make([]byte, testPage)
	if err := e.mergeInto(tail, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, testPage)) || e.pages[tail].tag != tagOf(1) {
		t.Fatal("tail page lost its image or tag to a clean")
	}
}
