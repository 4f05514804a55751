package ftl

import (
	"errors"
	"math/rand"
	"testing"

	"ssmobile/internal/engine/pdl"
	"ssmobile/internal/flash"
	"ssmobile/internal/sim"
)

// The device's destructive-op ledger through the full translation layer:
// DestructiveOps counts issued programs, spare programs and erases, so
// issued == completed + cut must hold not just for raw device traffic
// (internal/flash's invariant test) but through engine writes, cleaning,
// power cuts and the Mount recovery scan that follows them. Crash-point
// enumeration replays workloads by cut index against this ledger.

func ledgerOK(t *testing.T, dev *flash.Device, cuts int64) {
	t.Helper()
	st := dev.Stats()
	completed := st.Programs + st.Erases // Programs includes spare programs
	if got := dev.DestructiveOps(); got != completed+cuts {
		t.Fatalf("DestructiveOps = %d, want completed %d + cuts %d = %d",
			got, completed, cuts, completed+cuts)
	}
}

// ledgerLayer is what the ledger test needs of a storage engine; both
// *FTL and *pdl.Engine provide it.
type ledgerLayer interface {
	LogicalPages() int64
	WritePageTagged(lpn int64, data []byte, tag Tag) error
	CheckInvariants() error
}

// TestDestructiveOpsLedgerAcrossRemount cuts power mid-workload at
// several indexes and fates, remounts by the honest recovery path, keeps
// writing, and checks the ledger at every stage: exactly the cut op is
// issued-but-not-completed, before and after recovery. Both engines run
// it over the same card: their erases and mount re-erases go through the
// one block pool, so the ledger must hold under either page format.
func TestDestructiveOpsLedgerAcrossRemount(t *testing.T) {
	pdlConfig := pdl.Config{PageBytes: 1024}
	engines := []struct {
		name       string
		new, mount func(*flash.Device, *sim.Clock) (ledgerLayer, error)
	}{
		{"ftl",
			func(d *flash.Device, c *sim.Clock) (ledgerLayer, error) { return New(d, c, oobConfig()) },
			func(d *flash.Device, c *sim.Clock) (ledgerLayer, error) { return Mount(d, c, oobConfig()) }},
		{"pdl",
			func(d *flash.Device, c *sim.Clock) (ledgerLayer, error) { return pdl.New(d, c, pdlConfig) },
			func(d *flash.Device, c *sim.Clock) (ledgerLayer, error) { return pdl.Mount(d, c, pdlConfig) }},
	}
	for _, eng := range engines {
		eng := eng
		t.Run(eng.name, func(t *testing.T) {
			for _, fate := range []flash.Outcome{flash.CutBefore, flash.CutDuring, flash.CutAfter} {
				for _, seed := range []int64{1993, 1, 42} {
					rng := rand.New(rand.NewSource(seed))
					inj := &flash.CutAt{Index: 20 + rng.Int63n(100), Fate: fate}
					dev, clock := oobFlashInjected(t, inj)
					f, err := eng.new(dev, clock)
					if err != nil {
						t.Fatal(err)
					}

					// Random full-page overwrite traffic over a small
					// logical range drives data programs, spare programs
					// and cleaner erases until the injected cut fires.
					lpns := f.LogicalPages() / 4
					cut := false
					for i := 0; i < 2000 && !cut; i++ {
						err := f.WritePageTagged(rng.Int63n(lpns), page(byte(i), 1024), Tag{})
						switch {
						case errors.Is(err, flash.ErrPowerCut):
							cut = true
						case err != nil:
							t.Fatalf("fate %v seed %d write %d: %v", fate, seed, i, err)
						}
					}
					if !cut {
						t.Fatalf("fate %v seed %d: injector at %d never fired", fate, seed, inj.Index)
					}
					ledgerOK(t, dev, 1)

					// Recover the honest way: power restored, injector
					// disarmed, mapping rebuilt from the on-flash records.
					// Mount itself issues destructive ops (re-erasing torn
					// residue); they are completed ops and must keep the
					// ledger exact.
					dev.Restore()
					dev.SetInjector(nil)
					m, err := eng.mount(dev, clock)
					if err != nil {
						t.Fatal(err)
					}
					if err := m.CheckInvariants(); err != nil {
						t.Fatal(err)
					}
					ledgerOK(t, dev, 1)

					// Life goes on after recovery; the one cut op stays the
					// only issued-but-never-completed entry on the ledger.
					for i := 0; i < 200; i++ {
						if err := m.WritePageTagged(rng.Int63n(lpns), page(byte(i), 1024), Tag{}); err != nil {
							t.Fatalf("post-recovery write %d: %v", i, err)
						}
					}
					ledgerOK(t, dev, 1)
				}
			}
		})
	}
}
