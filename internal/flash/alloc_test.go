package flash

import (
	"testing"

	"ssmobile/internal/device"
	"ssmobile/internal/obs"
	"ssmobile/internal/sim"
)

// TestDeviceOpsAllocFree holds the device's hot paths to zero
// allocations under a tracing observer, the one every served stack runs
// with: programs into erased pages and over programmed ones, sync and
// async, a spare program, reads of whole pages and of a page that
// straddles a block's frontier, and sync and async erases.
func TestDeviceOpsAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	const page = 4096
	cfg := Config{Banks: 2, BlocksPerBank: 8, BlockBytes: 64 << 10, Params: device.IntelFlash,
		SpareUnitBytes: page, SpareBytes: 36, Obs: obs.New(0)}
	cfg.Params.EnduranceCycles = 0
	d, err := New(cfg, sim.NewClock(), sim.NewEnergyMeter())
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2*page)
	data := buf[:page]
	for i := range data {
		data[i] = byte(i)
	}
	// The last block holds half a page, so a read of its first two pages
	// crosses the frontier.
	last := d.NumBlocks() - 1
	if _, err := d.Program(d.BlockAddr(last), data[:page/2]); err != nil {
		t.Fatal(err)
	}
	straddle := []int64{d.BlockAddr(last), d.BlockAddr(last) + page}
	next := int64(0) // the next erased page; 2 × 101 runs fit before the last block
	rec := make([]byte, cfg.SpareBytes)
	for _, c := range []struct {
		name string
		op   func() error
	}{
		{"Program into an erased page", func() error { _, err := d.Program(next*page, data); next++; return err }},
		{"ProgramAsync into an erased page", func() error { err := d.ProgramAsync(next*page, data); next++; return err }},
		{"Program over a programmed page", func() error { _, err := d.Program(0, data); return err }},
		{"ProgramAsync over a programmed page", func() error { return d.ProgramAsync(0, data) }},
		{"ProgramSpare", func() error { _, err := d.ProgramSpare(0, rec); return err }},
		{"Read", func() error { _, err := d.Read(page, data); return err }},
		{"ReadPages across a frontier", func() error { _, err := d.ReadPages(straddle, buf); return err }},
		{"Erase", func() error { _, err := d.Erase(int(next % int64(last))); next++; return err }},
		{"EraseAsync", func() error { err := d.EraseAsync(int(next % int64(last))); next++; return err }},
	} {
		var opErr error
		if a := testing.AllocsPerRun(100, func() {
			if err := c.op(); err != nil && opErr == nil {
				opErr = err
			}
		}); a != 0 || opErr != nil {
			t.Errorf("%s: %.1f allocations per run (err %v)", c.name, a, opErr)
		}
	}
}
