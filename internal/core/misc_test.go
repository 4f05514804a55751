package core

import (
	"strings"
	"testing"

	"ssmobile/internal/dram"
	"ssmobile/internal/sim"
)

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID:      "T",
		Title:   "test table",
		Headers: []string{"col-a", "b"},
	}
	tab.AddRow("x", 3.14159)
	tab.AddRow("longer-cell", 42)
	tab.Notes = append(tab.Notes, "a note")
	out := tab.String()
	for _, want := range []string{"== T: test table ==", "col-a", "3.14", "longer-cell", "42", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
	// Row cells align: the header underline matches the widest cell.
	if !strings.Contains(out, "-----------") {
		t.Error("separator not sized to widest cell")
	}
}

func TestFormatHelpers(t *testing.T) {
	cases := map[sim.Duration]string{
		500:                    "500ns",
		3 * sim.Microsecond:    "3.0us",
		2 * sim.Millisecond:    "2.00ms",
		1500 * sim.Millisecond: "1.50s",
	}
	for d, want := range cases {
		if got := fmtDur(d); got != want {
			t.Errorf("fmtDur(%d) = %q want %q", int64(d), got, want)
		}
	}
	if fmtBytes(512) != "512B" || fmtBytes(64<<10) != "64KB" || fmtBytes(4<<20) != "4MB" {
		t.Errorf("fmtBytes wrong: %s %s %s", fmtBytes(512), fmtBytes(64<<10), fmtBytes(4<<20))
	}
}

func TestBatteryMonitorPackAccessor(t *testing.T) {
	sys := newSolid(t)
	pack := dram.NewPack(10, 0.5)
	mon := AttachBattery(sys, pack)
	if mon.pack != pack {
		t.Fatal("Pack accessor wrong")
	}
	if mon.emergencyDone {
		t.Fatal("flushed before any drain")
	}
}
