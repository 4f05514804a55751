package engine_test

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"ssmobile/internal/device"
	"ssmobile/internal/engine"
	"ssmobile/internal/engine/backends"
	"ssmobile/internal/engine/blocks"
	"ssmobile/internal/engine/pdl"
	"ssmobile/internal/flash"
	"ssmobile/internal/ftl"
	"ssmobile/internal/obs"
	"ssmobile/internal/sim"
)

const conformancePage = 4096

// engineRow is a storage engine with how to build it fresh and how to
// mount it from a device that holds its data.
type engineRow struct {
	name       string
	new, mount func(*flash.Device, *sim.Clock) (engine.Engine, error)
}

// engines has a row for every engine in backends.Names. Both run with
// the background erase and idle cleaning the served card uses, tuned
// past the table's settings where a test needs it (pdl's short delta
// chains exercise the chain bound).
var engines = []engineRow{
	{
		name: "ftl",
		new: func(dev *flash.Device, clock *sim.Clock) (engine.Engine, error) {
			return ftl.New(dev, clock, conformanceFTL())
		},
		mount: func(dev *flash.Device, clock *sim.Clock) (engine.Engine, error) {
			return ftl.Mount(dev, clock, conformanceFTL())
		},
	},
	{
		name: "pdl",
		new: func(dev *flash.Device, clock *sim.Clock) (engine.Engine, error) {
			return pdl.New(dev, clock, conformancePDL())
		},
		mount: func(dev *flash.Device, clock *sim.Clock) (engine.Engine, error) {
			return pdl.Mount(dev, clock, conformancePDL())
		},
	},
}

func conformanceFTL() ftl.Config {
	return ftl.Config{
		PageBytes: conformancePage, Policy: ftl.PolicyCostBenefit, HotCold: true,
		PersistMapping: true, IdleCleanThreshold: 8, Obs: obs.New(0),
	}
}

func conformancePDL() pdl.Config {
	return pdl.Config{
		PageBytes: conformancePage, IdleCleanThreshold: 8, Obs: obs.New(0),
	}
}

// newCard builds the conformance card, the served one in small, with a
// fresh engine on it.
func newCard(t *testing.T, build func(*flash.Device, *sim.Clock) (engine.Engine, error)) (*sim.Clock, *flash.Device, engine.Engine) {
	t.Helper()
	clock := sim.NewClock()
	dev, err := flash.New(flash.Config{
		Banks: 4, BlocksPerBank: 8, BlockBytes: 4 * conformancePage, Params: device.IntelFlash,
		SpareUnitBytes: conformancePage, SpareBytes: blocks.PageRecordBytes,
	}, clock, sim.NewEnergyMeter())
	if err != nil {
		t.Fatal(err)
	}
	e, err := build(dev, clock)
	if err != nil {
		t.Fatal(err)
	}
	return clock, dev, e
}

// checkBatchedReads drives two identical cards through the same writes,
// overwrites, trims and idle cleans, and now and then reads a list of
// pages from both: from one in a single ReadPages call, from the other a
// page at a time. The lists mix mapped pages with never-written and
// trimmed ones, and one is a run of mapped pages longer than
// engine.ReadRunPages. The call must return the same bytes at the same
// cost — device reads, engine host reads, simulated time and energy —
// or the two cards would part ways; and a list holding a bad lpn must
// fail as that lpn alone does, before reading anything.
func checkBatchedReads(t *testing.T, build func(*flash.Device, *sim.Clock) (engine.Engine, error)) {
	t.Helper()
	const lpns = 48 // every fourth page is never written
	type card struct {
		clock *sim.Clock
		dev   *flash.Device
		e     engine.Engine
	}
	var batched, single card
	for _, c := range []*card{&batched, &single} {
		c.clock, c.dev, c.e = newCard(t, build)
	}
	cost := func(c *card) [4]float64 {
		return [4]float64{float64(c.dev.Stats().Reads), float64(c.e.Stats().HostReads),
			float64(c.clock.Now()), float64(c.dev.Meter().Total())}
	}
	compare := func(op int, list []int64) {
		got := make([]byte, len(list)*conformancePage)
		if err := batched.e.ReadPages(list, got); err != nil {
			t.Fatalf("op %d: ReadPages of %d pages: %v", op, len(list), err)
		}
		want := make([]byte, len(got))
		for i, lpn := range list {
			if err := single.e.ReadPages([]int64{lpn}, want[i*conformancePage:(i+1)*conformancePage]); err != nil {
				t.Fatalf("op %d: read %d: %v", op, lpn, err)
			}
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("op %d: ReadPages of %d pages differs from reading them one by one", op, len(list))
		}
		if b, s := cost(&batched), cost(&single); b != s {
			t.Fatalf("op %d: ReadPages of %d pages cost %v (reads, host reads, clock, energy), one by one %v", op, len(list), b, s)
		}
	}

	rng := rand.New(rand.NewSource(7))
	mapped := make(map[int64]bool)
	page := make([]byte, conformancePage)
	busy := 0
	for op := 0; op < 1500; op++ {
		lpn, k := int64(rng.Intn(lpns)), rng.Intn(100)
		rng.Read(page)
		for _, c := range []*card{&batched, &single} {
			var err error
			switch {
			case lpn%4 == 3:
			case k < 60:
				err = c.e.WritePageTagged(lpn, page, tagOf(byte(lpn)))
			case k < 85:
				err = c.e.TrimPage(lpn)
			default:
				err = c.e.CleanIdle(sim.Forever)
			}
			if err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
		if lpn%4 != 3 && k < 85 {
			mapped[lpn] = k < 60
		}
		if op%50 != 49 {
			continue
		}
		for bank := 0; bank < batched.dev.Banks(); bank++ {
			if batched.dev.BankBusyUntil(bank) > batched.clock.Now() {
				busy++
				break
			}
		}
		all := make([]int64, lpns)
		for i := range all {
			all[i] = int64(i)
		}
		compare(op, all)
		var run []int64
		for len(run) <= engine.ReadRunPages {
			if lpn := int64(rng.Intn(lpns)); mapped[lpn] {
				run = append(run, lpn)
			}
		}
		compare(op, run)
	}
	t.Logf("%d of 30 checks found a bank busy", busy)
	if busy == 0 {
		t.Fatal("no list was read while a bank was busy; bank waits are not compared")
	}

	for _, bad := range []int64{-1, batched.e.LogicalPages()} {
		before := cost(&batched)
		errBatched := batched.e.ReadPages([]int64{0, 1, bad, 2}, make([]byte, 4*conformancePage))
		errSingle := single.e.ReadPages([]int64{bad}, make([]byte, conformancePage))
		if errBatched == nil || errSingle == nil || errBatched.Error() != errSingle.Error() {
			t.Fatalf("lpn %d: ReadPages of a list fails with %v, alone with %v", bad, errBatched, errSingle)
		}
		if after := cost(&batched); after != before {
			t.Fatalf("lpn %d: a failed ReadPages charged %v, had %v", bad, after, before)
		}
	}
}

func tagOf(b byte) engine.Tag {
	var t engine.Tag
	t[0] = b
	return t
}

// TestEngineConformance drives every backend, through the engine
// interface alone, with a seeded random mix of full writes, small
// overwrites, identical rewrites, trims, tag changes and idle cleans,
// checking every page against an in-memory model and the structural
// invariants as it goes — then remounts from the device scan and checks
// the model again. This is the whole engine contract in one test: what
// you wrote is what you read, before and after recovery.
//
// The card is the served one in small — four banks, the real 1.6 s erase
// issued in the background — so most of the engines' decisions (which
// block the next log head opens in, which victim the cleaner takes) are
// made while some banks are erasing, and the remount happens with erases
// still in progress.
func TestEngineConformance(t *testing.T) {
	for _, name := range backends.Names {
		if !slices.ContainsFunc(engines, func(b engineRow) bool { return b.name == name }) {
			t.Errorf("backends.Names holds %q, which has no conformance row", name)
		}
	}
	for _, backend := range engines {
		t.Run(backend.name, func(t *testing.T) {
			checkBatchedReads(t, backend.new)
			clock, dev, e := newCard(t, backend.new)
			differential := e.DiffsOverwrites()

			rng := rand.New(rand.NewSource(1993))
			const lpns = 40 // well under logical capacity, hot enough to force cleaning
			erased := bytes.Repeat([]byte{0xFF}, conformancePage)
			model := make(map[int64][]byte)
			tags := make(map[int64]engine.Tag)
			buf := make([]byte, conformancePage)
			page := make([]byte, conformancePage)
			busyOps := 0
			overwrites, subPage := 0, 0 // small changes to mapped pages, and those that programmed less than a page

			for op := 0; op < 4000; op++ {
				lpn := int64(rng.Intn(lpns))
				switch k := rng.Intn(100); {
				case k < 45: // small overwrite: mutate a narrow range of the current image
					cur, ok := model[lpn]
					if !ok {
						cur = erased
					}
					copy(page, cur)
					off := rng.Intn(conformancePage - 64)
					n := 1 + rng.Intn(64)
					for i := 0; i < n; i++ {
						page[off+i] = byte(rng.Intn(256))
					}
					before := dev.BytesProgrammed()
					if err := e.WritePageTagged(lpn, page, tags[lpn]); err != nil {
						t.Fatalf("op %d: overwrite: %v", op, err)
					}
					// What DiffsOverwrites promises: an engine that says no
					// programs at least a page for every change to a mapped
					// page; one that says yes must mostly program less.
					if ok && !bytes.Equal(page, cur) {
						overwrites++
						if programmed := dev.BytesProgrammed() - before; programmed < conformancePage {
							if !differential {
								t.Fatalf("op %d: an engine that rewrites whole pages programmed %d bytes for an overwrite", op, programmed)
							}
							subPage++
						}
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
				case k < 78: // identical rewrite: the image must survive it
					cur, ok := model[lpn]
					if !ok {
						break
					}
					before := dev.BytesProgrammed()
					if err := e.WritePageTagged(lpn, cur, tags[lpn]); err != nil {
						t.Fatalf("op %d: identical rewrite: %v", op, err)
					}
					// A differential log has nothing to persist.
					if after := dev.BytesProgrammed(); differential && after != before {
						t.Fatalf("op %d: identical rewrite programmed %d flash bytes", op, after-before)
					}
				case k < 88: // trim
					if err := e.TrimPage(lpn); err != nil {
						t.Fatalf("op %d: trim: %v", op, err)
					}
					delete(model, lpn)
					delete(tags, lpn)
				default: // idle clean
					if err := e.CleanIdle(sim.Forever); err != nil {
						t.Fatalf("op %d: idle clean: %v", op, err)
					}
				}
				for bank := 0; bank < dev.Banks(); bank++ {
					if dev.BankBusyUntil(bank) > clock.Now() {
						busyOps++
						break
					}
				}
				// Read-verify a random page every step.
				probe := int64(rng.Intn(lpns))
				if err := e.ReadPages([]int64{probe}, buf); err != nil {
					t.Fatalf("op %d: read %d: %v", op, probe, err)
				}
				want, ok := model[probe]
				if !ok {
					want = erased
				}
				if !bytes.Equal(buf, want) {
					t.Fatalf("op %d: page %d diverged from model (mapped=%v)", op, probe, ok)
				}
				if e.Mapped(probe) != ok {
					t.Fatalf("op %d: page %d mapped=%v, model says %v", op, probe, e.Mapped(probe), ok)
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
			if e.Stats().Cleans == 0 {
				t.Fatal("workload never cleaned; relocation paths are not exercised")
			}
			if busyOps < 400 {
				t.Fatalf("a bank was busy after only %d of 4000 ops; decisions are not being taken under erases", busyOps)
			}
			t.Logf("%d of %d small overwrites programmed less than a page", subPage, overwrites)
			if differential && 2*subPage <= overwrites {
				t.Fatalf("an engine that diffs overwrites programmed less than a page for only %d of %d small ones", subPage, overwrites)
			}
			if p, ok := e.(*pdl.Engine); ok && p.Promotions() == 0 {
				t.Fatal("workload never promoted a chain; bounds are not exercised")
			}

			// Remount from the device scan: the rebuilt engine must agree
			// with the model byte for byte, tag for tag.
			e2, err := backend.mount(dev, clock)
			if err != nil {
				t.Fatalf("remount: %v", err)
			}
			if err := e2.CheckInvariants(); err != nil {
				t.Fatalf("remount: %v", err)
			}
			for lpn := int64(0); lpn < lpns; lpn++ {
				if err := e2.ReadPages([]int64{lpn}, buf); err != nil {
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
					want = erased
				}
				if !bytes.Equal(buf, want) {
					t.Fatalf("remount: page %d diverged from model", lpn)
				}
				if ok && e2.TagOf(lpn) != tags[lpn] {
					t.Fatalf("remount: page %d tag %v want %v", lpn, e2.TagOf(lpn), tags[lpn])
				}
			}
		})
	}
}
