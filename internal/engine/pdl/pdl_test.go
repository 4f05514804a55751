package pdl

import (
	"bytes"
	"math/rand"
	"slices"
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

// newRig builds an engine on the quick card: two banks and a 1 ms erase.
func newRig(t testing.TB, cfg Config) *rig {
	t.Helper()
	params := device.IntelFlash
	params.EraseLatencyNs = 1e6
	return newRigOn(t, 2, params, cfg)
}

// newRigOn builds an engine on a 32-block card of the given banks and
// part.
func newRigOn(t testing.TB, banks int, params device.Params, cfg Config) *rig {
	t.Helper()
	clock := sim.NewClock()
	meter := sim.NewEnergyMeter()
	dev, err := flash.New(flash.Config{
		Banks: banks, BlocksPerBank: 32 / banks, BlockBytes: 16 * 1024, Params: params,
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

	// And a power cut: Mount finds the worn blocks, shrinks the capacity
	// the same way, and must rebuild the tail page whole — base and chain.
	// It used to test base claims against the capacity before the worn
	// blocks retired and delta records against the capacity after, so the
	// tail page came back as its base alone, a stale image the next clean
	// would have made permanent.
	patch := []byte{0xA5, 0x5A, 0xC3}
	if err := e.appendDelta(tail, 100, patch); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, testPage)
	copy(want[100:], patch)
	e2, err := Mount(dev, clock, Config{PageBytes: testPage, ReserveBlocks: 3, Obs: obs.New(0)})
	if err != nil {
		t.Fatalf("mount: %v", err)
	}
	if e2.MountStats().RetiredBlocks == 0 || tail < e2.LogicalPages() {
		t.Fatalf("mount retired %d blocks and left capacity %d: tail page %d is not in a truncated tail",
			e2.MountStats().RetiredBlocks, e2.LogicalPages(), tail)
	}
	if err := e2.mergeInto(tail, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) || e2.pages[tail].tag != tagOf(1) {
		t.Fatalf("tail page remounted with a %d-record chain and a stale image", len(e2.pages[tail].chain))
	}
}

// touchedByWalk is the cleaner's work list as it was computed before the
// touch index existed, kept as the reference: walk every logical page and
// keep, in page order, those with a base unit or a chain record in block b.
func touchedByWalk(e *Engine, b int) []int64 {
	var out []int64
	for i := range e.pages {
		pm := &e.pages[i]
		if pm.basePpn == -1 {
			continue
		}
		touched := e.blockOf(pm.basePpn) == b
		for j := range pm.chain {
			if e.blockOfAddr(pm.chain[j].addr) == b {
				touched = true
			}
		}
		if touched {
			out = append(out, int64(i))
		}
	}
	return out
}

// TestTouchIndexEquivalence holds victimPages — the rev slice plus the
// per-block touch lists — to the full walk it replaced, order included:
// before every operation for every in-use block, immediately before every
// clean for its victim (the test runs the pool's space-pressure loop by
// hand so it can look), and for every block of an engine rebuilt by Mount,
// which then takes traffic too so chains installed by the scan get cleaned.
func TestTouchIndexEquivalence(t *testing.T) {
	for _, seed := range []int64{1993, 7, 42} {
		cfg := Config{PageBytes: testPage, ReserveBlocks: 3, MaxChain: 4}
		r := newRig(t, cfg)
		rng := rand.New(rand.NewSource(seed))
		images := make(map[int64][]byte)
		folds, deltaCleans := 0, 0

		check := func(e *Engine, b, op int, when string) []int64 {
			t.Helper()
			want := touchedByWalk(e, b)
			if got := e.victimPages(b); !slices.Equal(got, want) {
				t.Fatalf("seed %d, op %d, %s: block %d work list %v, full walk %v", seed, op, when, b, got, want)
			}
			return want
		}
		drive := func(e *Engine, ops int) {
			const lpns = 72 // two thirds of the logical space: constant cleaning
			page := make([]byte, testPage)
			for op := 0; op < ops; op++ {
				for b := 0; b < e.numBlocks; b++ {
					if e.pool.InUse(b) {
						check(e, b, op, "before the op")
					}
				}
				for e.pool.Free() <= e.cfg.ReserveBlocks {
					v := e.pickVictim()
					if v == -1 {
						break
					}
					moved := check(e, v, op, "before its clean")
					isDelta := e.blocks[v].kind == blockDelta
					bases := make([]uint64, len(moved))
					for i, lpn := range moved {
						bases[i] = e.pages[lpn].baseSeq
					}
					if err := e.pool.Clean(v); err != nil {
						t.Fatalf("seed %d, op %d: clean %d: %v", seed, op, v, err)
					}
					if isDelta && len(moved) > 0 {
						deltaCleans++
					}
					for i, lpn := range moved {
						if e.pages[lpn].baseSeq == bases[i] {
							folds++
						}
					}
				}
				lpn := int64(rng.Intn(lpns))
				cur, mapped := images[lpn]
				switch k := rng.Intn(100); {
				case k < 60 && mapped: // small overwrite: the delta path
					copy(page, cur)
					off := rng.Intn(testPage - 64)
					for i, n := 0, 1+rng.Intn(64); i < n; i++ {
						page[off+i] = byte(rng.Intn(256))
					}
				case k < 90: // full-page write
					rng.Read(page)
				default:
					if err := e.TrimPage(lpn); err != nil {
						t.Fatal(err)
					}
					delete(images, lpn)
					continue
				}
				tag := e.TagOf(lpn)
				if rng.Intn(4) == 0 { // a tag change forces a fresh base either way
					tag = tagOf(byte(rng.Intn(8)))
				}
				if err := e.WritePageTagged(lpn, page, tag); err != nil {
					t.Fatalf("seed %d, op %d: write: %v", seed, op, err)
				}
				images[lpn] = append(cur[:0], page...)
			}
			if err := e.CheckInvariants(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}

		drive(r.e, 3000)
		if folds == 0 || deltaCleans == 0 || r.e.Promotions() == 0 {
			t.Fatalf("seed %d: %d folds, %d delta-block cleans, %d promotions: the traffic is not exercising the index",
				seed, folds, deltaCleans, r.e.Promotions())
		}
		cfg.Obs = obs.New(0)
		e2, err := Mount(r.dev, r.clock, cfg)
		if err != nil {
			t.Fatalf("seed %d: mount: %v", seed, err)
		}
		chained := 0
		for b := 0; b < e2.numBlocks; b++ {
			if e2.pool.InUse(b) && e2.blocks[b].kind == blockDelta {
				chained += len(check(e2, b, 0, "after mount"))
			}
		}
		if chained == 0 {
			t.Fatalf("seed %d: no chain survived the mount; its install site is not exercised", seed)
		}
		drive(e2, 1000)
	}
}

// diffRangeBytes is diffRange's definition, one byte at a time.
func diffRangeBytes(old, new []byte) (lo, hi int) {
	n := len(old)
	for lo = 0; lo < n && old[lo] == new[lo]; lo++ {
	}
	if lo == n {
		return n, n
	}
	for hi = n; old[hi-1] == new[hi-1]; hi-- {
	}
	return lo, hi
}

// diffRangeCases yields image pairs whose first and last differing bytes
// sit at every alignment pair mod 8 — at both ends of the page and in its
// middle — plus identical images and the single-byte differences at the
// two ends, on 4096-, 1024- and 13-byte pages.
func diffRangeCases(visit func(old, new []byte, lo, hi int)) {
	for _, n := range []int{4096, 1024, 13} {
		old := make([]byte, n)
		for i := range old {
			old[i] = byte(i * 7)
		}
		visit(old, old, n, n)
		var edges []int // positions covering every residue near each end and mid-page
		for i := 0; i < n && i < 16; i++ {
			edges = append(edges, i)
		}
		for i := n/2 - 4; n > 32 && i < n/2+4; i++ {
			edges = append(edges, i)
		}
		for i := n - 16; n > 32 && i < n; i++ {
			edges = append(edges, i)
		}
		for _, lo := range edges {
			for _, last := range edges {
				if last < lo {
					continue
				}
				new := append([]byte(nil), old...)
				new[lo] ^= 0x80
				if last != lo {
					new[last] ^= 0x01
				}
				if last-lo > 2 {
					new[lo+(last-lo)/2] ^= 0xFF // something in between must not matter
				}
				visit(old, new, lo, last+1)
			}
		}
	}
}

// TestDiffRangeMatchesByteWalk pins the word-at-a-time diffRange to its
// byte-wise definition.
func TestDiffRangeMatchesByteWalk(t *testing.T) {
	cases := 0
	diffRangeCases(func(old, new []byte, wantLo, wantHi int) {
		cases++
		lo, hi := diffRange(old, new)
		if rlo, rhi := diffRangeBytes(old, new); lo != rlo || hi != rhi || lo != wantLo || hi != wantHi {
			t.Fatalf("%d-byte page: diffRange [%d,%d), byte walk [%d,%d), planted [%d,%d)",
				len(old), lo, hi, rlo, rhi, wantLo, wantHi)
		}
	})
	if cases < 3*64 {
		t.Fatalf("only %d cases", cases)
	}
}

// FuzzDiffRange searches for an image pair on which the two disagree.
func FuzzDiffRange(f *testing.F) {
	diffRangeCases(func(old, new []byte, _, _ int) {
		if len(old) <= 1024 {
			f.Add(old, new)
		}
	})
	f.Fuzz(func(t *testing.T, old, new []byte) {
		n := min(len(old), len(new))
		old, new = old[:n], new[:n]
		lo, hi := diffRange(old, new)
		if rlo, rhi := diffRangeBytes(old, new); lo != rlo || hi != rhi {
			t.Fatalf("%d-byte page: diffRange [%d,%d), byte walk [%d,%d)", n, lo, hi, rlo, rhi)
		}
	})
}
