package core

import (
	"bytes"
	"strings"
	"testing"

	"ssmobile/internal/dram"
	"ssmobile/internal/sim"
	"ssmobile/internal/vm"
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

func TestInstallImageAndXIP(t *testing.T) {
	sys := newSolid(t)
	image := bytes.Repeat([]byte{0x5B}, 100*1024)
	if err := sys.InstallImage(0, image); err != nil {
		t.Fatal(err)
	}
	// Installing again over the same region must work (erase first).
	image2 := bytes.Repeat([]byte{0xA7}, 100*1024)
	if err := sys.InstallImage(0, image2); err != nil {
		t.Fatalf("reinstall: %v", err)
	}
	buf := make([]byte, 4)
	if _, err := sys.CodeCard.Read(0, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0xA7 {
		t.Fatalf("reinstall content %x", buf[0])
	}
	// Unaligned offsets are rejected.
	if err := sys.InstallImage(100, image); err == nil {
		t.Fatal("unaligned install accepted")
	}
	// The installed image executes in place through the VM.
	s := sys.VM.NewSpace()
	if err := sys.VM.MapFlash(s, 1<<30, 0, 100*1024, vm.PermRead|vm.PermExec); err != nil {
		t.Fatal(err)
	}
	if err := sys.VM.Exec(s, 1<<30, 100*1024); err != nil {
		t.Fatal(err)
	}
	if sys.VM.Stats().FramesInUse != 0 {
		t.Fatal("XIP consumed frames")
	}
}

func TestBatteryMonitorPackAccessor(t *testing.T) {
	sys := newSolid(t)
	pack := dram.NewPack(10, 0.5)
	mon := AttachBattery(sys, pack)
	if mon.Pack() != pack {
		t.Fatal("Pack accessor wrong")
	}
	if flushed, _ := mon.EmergencyFlushed(); flushed {
		t.Fatal("flushed before any drain")
	}
}
