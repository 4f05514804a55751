package core

import (
	"strconv"
	"strings"
	"testing"

	"ssmobile/internal/sim"
	"ssmobile/internal/trace"
	"ssmobile/internal/wbuf"
)

const testSeed = 1993

// parsePercent extracts the numeric part of a "41.2%" cell.
func parsePercent(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
	if err != nil {
		t.Fatalf("cell %q is not a percentage: %v", cell, err)
	}
	return v
}

// The headline calibration: 1MB of buffer yields the paper's 40-50%
// write-traffic reduction on the Sprite-like trace.
func TestE3ReproducesBakerReduction(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tr, err := trace.GenerateBaker(trace.DefaultBaker(2*sim.Hour, testSeed))
	if err != nil {
		t.Fatal(err)
	}
	st, err := replayThroughBuffer(nil, tr, 1<<20, 30*sim.Second, wbuf.EvictLRW)
	if err != nil {
		t.Fatal(err)
	}
	got := st.Reduction() * 100
	if got < 40 || got > 55 {
		t.Errorf("1MB buffer reduction %.1f%%, paper says 40-50%%", got)
	}
	// And the sweep is monotone non-decreasing in buffer size.
	prev := -1.0
	for _, mb := range []float64{0, 0.25, 0.5, 1, 2} {
		s, err := replayThroughBuffer(nil, tr, int64(mb*float64(1<<20)), 30*sim.Second, wbuf.EvictLRW)
		if err != nil {
			t.Fatal(err)
		}
		if r := s.Reduction(); r+1e-9 < prev {
			t.Errorf("reduction not monotone at %gMB: %.3f after %.3f", mb, r, prev)
		} else {
			prev = r
		}
	}
}

func TestE6WearShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tab, err := E6WearLeveling(NewEnv(nil, 1), testSeed)
	if err != nil {
		t.Fatal(err)
	}
	// Row 0 is direct; every log policy must have a lower CoV and lower
	// write amplification.
	parse := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("bad cell %q", s)
		}
		return v
	}
	directCoV := parse(tab.Rows[0][1])
	directWA := parse(tab.Rows[0][4])
	for _, row := range tab.Rows[1:] {
		if cov := parse(row[1]); cov >= directCoV {
			t.Errorf("%s CoV %.2f not below direct %.2f", row[0], cov, directCoV)
		}
		if wa := parse(row[4]); wa >= directWA {
			t.Errorf("%s write amp %.2f not below direct %.2f", row[0], wa, directWA)
		}
	}
}

func TestE7BankingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tab, err := E7Banking(NewEnv(nil, 1), testSeed)
	if err != nil {
		t.Fatal(err)
	}
	// Stalled-read fraction must decline monotonically with banks.
	prev := 101.0
	for _, row := range tab.Rows {
		frac := parsePercent(t, row[5])
		if frac >= prev {
			t.Errorf("banks=%s stalled %.1f%% not below %.1f%%", row[0], frac, prev)
		}
		prev = frac
	}
}

func TestE9SolidStateWins(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tr, err := trace.GenerateBaker(trace.DefaultBaker(5*sim.Minute, testSeed))
	if err != nil {
		t.Fatal(err)
	}
	solid, err := NewSolidState(SolidStateConfig{DRAMBytes: 16 << 20, FlashBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	dsys, err := NewDisk(DiskConfig{DRAMBytes: 16 << 20, DiskBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	ss, err := Replay(solid, tr)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := Replay(dsys, tr)
	if err != nil {
		t.Fatal(err)
	}
	if ss.ReadLatency.Mean() >= ds.ReadLatency.Mean() {
		t.Errorf("solid read mean %.0fns not below disk %.0fns",
			ss.ReadLatency.Mean(), ds.ReadLatency.Mean())
	}
	if ss.WriteLatency.Mean() >= ds.WriteLatency.Mean() {
		t.Errorf("solid write mean %.0fns not below disk %.0fns",
			ss.WriteLatency.Mean(), ds.WriteLatency.Mean())
	}
	if ss.EnergyTotal >= ds.EnergyTotal {
		t.Errorf("solid energy %v not below disk %v", ss.EnergyTotal, ds.EnergyTotal)
	}
}
