package core

import (
	"bytes"
	"errors"
	"testing"

	"ssmobile/internal/dram"
	"ssmobile/internal/sim"
)

func TestBatteryMonitorEmergencyFlush(t *testing.T) {
	sys := newSolid(t)
	// A tiny primary so it empties during the test; a healthy backup so
	// the emergency flush has room to run.
	pack := &dram.Pack{
		Primary: dram.NewBattery("p", 50*sim.Millijoule),
		Backup:  dram.NewBattery("b", 5*sim.Joule),
	}
	mon := AttachBattery(sys, pack)

	data := bytes.Repeat([]byte{7}, 8192)
	if err := sys.Create("doc"); err != nil {
		t.Fatal(err)
	}
	var sawDead bool
	for i := 0; i < 200 && !sawDead; i++ {
		if _, err := sys.WriteAt("doc", int64(i%4)*8192, data); err != nil {
			t.Fatal(err)
		}
		sys.Clock().Advance(sim.Second)
		if err := mon.Tick(); err != nil {
			if errors.Is(err, dram.ErrBatteryDead) {
				sawDead = true
				break
			}
			t.Fatal(err)
		}
	}
	if !mon.emergencyDone {
		t.Fatal("primary emptied without an emergency flush")
	}
	if mon.emergencyAt == 0 {
		t.Fatal("flush time not recorded")
	}
	// Everything written before the flush must be in flash now: a power
	// failure right after costs nothing for it.
	sys.DRAM.PowerFail()
	recovered, err := sys.RemountAfterPowerFailure()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8192)
	n, err := recovered.ReadAt("doc", 0, buf)
	if err != nil || n != 8192 {
		t.Fatalf("doc after flush+failure: n=%d err=%v", n, err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("doc corrupted")
	}
}

func TestBatteryMonitorDrainsByConsumption(t *testing.T) {
	sys := newSolid(t)
	pack := dram.NewPack(10, 0.5)
	mon := AttachBattery(sys, pack)
	meterAtAttach := sys.Meter().Total()
	before := pack.Primary.Remaining()
	if err := sys.Create("f"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.WriteAt("f", 0, make([]byte, 64*1024)); err != nil {
		t.Fatal(err)
	}
	sys.Clock().Advance(sim.Minute)
	if err := mon.Tick(); err != nil {
		t.Fatal(err)
	}
	drained := before - pack.Primary.Remaining()
	if drained <= 0 {
		t.Fatal("no drain recorded")
	}
	// Drain must equal what the meter charged since the pack attached.
	if got := sys.Meter().Total() - meterAtAttach; drained != got {
		t.Fatalf("drained %d pJ != consumed %d pJ", int64(drained), int64(got))
	}
}
