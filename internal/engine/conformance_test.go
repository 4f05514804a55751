package engine_test

import (
	"bytes"
	"math/rand"
	"testing"

	"ssmobile/internal/device"
	"ssmobile/internal/engine"
	"ssmobile/internal/engine/pdl"
	"ssmobile/internal/flash"
	"ssmobile/internal/ftl"
	"ssmobile/internal/obs"
	"ssmobile/internal/sim"
)

const conformancePage = 4096

// backends lists every storage engine with how to build it fresh and how
// to mount it from a device that holds its data. Both run with the
// background erase and idle cleaning the served card uses.
var backends = []struct {
	name       string
	new, mount func(*flash.Device, *sim.Clock) (engine.Engine, error)
}{
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
		PageBytes: conformancePage, ReserveBlocks: 3, Policy: ftl.PolicyCostBenefit, HotCold: true,
		PersistMapping: true, IdleCleanThreshold: 8, BackgroundErase: true, Obs: obs.New(0),
	}
}

func conformancePDL() pdl.Config {
	return pdl.Config{
		PageBytes: conformancePage, ReserveBlocks: 3, MaxChain: 4,
		IdleCleanThreshold: 8, BackgroundErase: true, Obs: obs.New(0),
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
	for _, backend := range backends {
		t.Run(backend.name, func(t *testing.T) {
			clock := sim.NewClock()
			dev, err := flash.New(flash.Config{
				Banks: 4, BlocksPerBank: 8, BlockBytes: 4 * conformancePage, Params: device.IntelFlash,
				SpareUnitBytes: conformancePage, SpareBytes: ftl.OOBRecordBytes, // pdl's unit record is the same size
			}, clock, sim.NewEnergyMeter())
			if err != nil {
				t.Fatal(err)
			}
			e, err := backend.new(dev, clock)
			if err != nil {
				t.Fatal(err)
			}
			differential, _ := e.(*pdl.Engine)

			rng := rand.New(rand.NewSource(1993))
			const lpns = 40 // well under logical capacity, hot enough to force cleaning
			erased := bytes.Repeat([]byte{0xFF}, conformancePage)
			model := make(map[int64][]byte)
			tags := make(map[int64]engine.Tag)
			buf := make([]byte, conformancePage)
			page := make([]byte, conformancePage)
			busyOps := 0

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
					if err := e.WritePageTagged(lpn, page, tags[lpn]); err != nil {
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
					if after := dev.BytesProgrammed(); differential != nil && after != before {
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
				if err := e.ReadPage(probe, buf); err != nil {
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
			if differential != nil {
				if differential.DeltaWrites() == 0 {
					t.Fatal("workload never took the delta path; the test is not exercising differential logging")
				}
				if differential.Promotions() == 0 {
					t.Fatal("workload never promoted a chain; bounds are not exercised")
				}
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
