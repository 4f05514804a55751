package disk

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"ssmobile/internal/device"
	"ssmobile/internal/sim"
)

func newKittyHawk(t *testing.T) (*Device, *sim.Clock, *sim.EnergyMeter) {
	t.Helper()
	clock := sim.NewClock()
	meter := sim.NewEnergyMeter()
	d, err := New(Config{
		CapacityBytes:   20 << 20,
		Params:          device.KittyHawk,
		SpindownTimeout: 5 * sim.Second,
	}, clock, meter)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return d, clock, meter
}

func TestConfigValidation(t *testing.T) {
	clock, meter := sim.NewClock(), sim.NewEnergyMeter()
	if _, err := New(Config{CapacityBytes: 100, Params: device.KittyHawk}, clock, meter); err == nil {
		t.Error("sub-cylinder capacity accepted")
	}
	if _, err := New(Config{CapacityBytes: 1 << 20, Params: device.NECDram}, clock, meter); err == nil {
		t.Error("DRAM params accepted for disk")
	}
}

func TestGeometry(t *testing.T) {
	d, _, _ := newKittyHawk(t)
	if d.cylinders <= 0 {
		t.Fatal("no cylinders")
	}
	// Capacity rounds to whole cylinders and stays close to the request.
	if d.Capacity() > 20<<20 || d.Capacity() < (20<<20)-bytesPerCylinder {
		t.Fatalf("capacity %d not within one cylinder of 20MB", d.Capacity())
	}
}

func TestWriteRead(t *testing.T) {
	d, _, _ := newKittyHawk(t)
	msg := []byte("magnetic media")
	if _, err := d.Write(1<<20, msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := d.Read(1<<20, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("read back %q", got)
	}
}

func TestOutOfRange(t *testing.T) {
	d, _, _ := newKittyHawk(t)
	if _, err := d.Read(d.Capacity(), make([]byte, 1)); !errors.Is(err, ErrOutOfRange) {
		t.Error("read past end accepted")
	}
	if _, err := d.Write(-5, []byte{1}); !errors.Is(err, ErrOutOfRange) {
		t.Error("negative write accepted")
	}
}

func TestSeekCostGrowsWithDistance(t *testing.T) {
	d, _, _ := newKittyHawk(t)
	// Prime the head at cylinder 0.
	if _, err := d.Read(0, make([]byte, SectorBytes)); err != nil {
		t.Fatal(err)
	}
	near, err := d.Read(bytesPerCylinder, make([]byte, SectorBytes))
	if err != nil {
		t.Fatal(err)
	}
	// Back to 0, then a far seek.
	if _, err := d.Read(0, make([]byte, SectorBytes)); err != nil {
		t.Fatal(err)
	}
	far, err := d.Read(d.Capacity()-int64(SectorBytes), make([]byte, SectorBytes))
	if err != nil {
		t.Fatal(err)
	}
	if far <= near {
		t.Errorf("far seek %v not slower than adjacent-cylinder seek %v", far, near)
	}
}

func TestSameCylinderSkipsSeek(t *testing.T) {
	d, _, _ := newKittyHawk(t)
	if _, err := d.Read(0, make([]byte, SectorBytes)); err != nil {
		t.Fatal(err)
	}
	before := d.Stats().SeekNs
	if _, err := d.Read(SectorBytes, make([]byte, SectorBytes)); err != nil {
		t.Fatal(err)
	}
	if d.Stats().SeekNs != before {
		t.Error("same-cylinder access paid a seek")
	}
}

func TestDiskMuchSlowerThanFlashRead(t *testing.T) {
	// The premise of the whole paper: a random disk read pays mechanical
	// latency that flash does not.
	d, _, _ := newKittyHawk(t)
	if _, err := d.Read(0, make([]byte, SectorBytes)); err != nil {
		t.Fatal(err)
	}
	lat, err := d.Read(10<<20, make([]byte, 8192))
	if err != nil {
		t.Fatal(err)
	}
	flashLat := sim.Duration(device.IntelFlash.ReadLatencyNs(8192))
	if lat < 5*flashLat {
		t.Errorf("disk random 8KB read %v, flash %v; disk should be much slower", lat, flashLat)
	}
}

func TestSpindownAndSpinup(t *testing.T) {
	d, clock, _ := newKittyHawk(t)
	if _, err := d.Read(0, make([]byte, SectorBytes)); err != nil {
		t.Fatal(err)
	}
	busyLat, err := d.Read(0, make([]byte, SectorBytes))
	if err != nil {
		t.Fatal(err)
	}
	// Idle past the spindown timeout.
	clock.Advance(sim.Minute)
	coldLat, err := d.Read(0, make([]byte, SectorBytes))
	if err != nil {
		t.Fatal(err)
	}
	spin := sim.Duration(device.KittyHawk.SpinupNs)
	if coldLat < busyLat+spin/2 {
		t.Errorf("cold read %v should pay spin-up over warm read %v", coldLat, busyLat)
	}
	if d.Stats().Spinups != 1 {
		t.Errorf("spinups = %d, want 1", d.Stats().Spinups)
	}
}

func TestSpindownSavesEnergy(t *testing.T) {
	run := func(timeout sim.Duration) sim.Energy {
		clock := sim.NewClock()
		meter := sim.NewEnergyMeter()
		d, err := New(Config{CapacityBytes: 20 << 20, Params: device.KittyHawk, SpindownTimeout: timeout}, clock, meter)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Read(0, make([]byte, SectorBytes)); err != nil {
			t.Fatal(err)
		}
		clock.Advance(sim.Hour)
		d.ChargeIdle()
		return meter.Total()
	}
	withSpindown := run(5 * sim.Second)
	alwaysOn := run(0)
	if withSpindown >= alwaysOn {
		t.Errorf("spindown energy %v not below always-on %v", withSpindown, alwaysOn)
	}
}

func TestSpunDownState(t *testing.T) {
	d, clock, _ := newKittyHawk(t)
	if _, err := d.Read(0, make([]byte, SectorBytes)); err != nil {
		t.Fatal(err)
	}
	if d.spunDown {
		t.Fatal("drive spun down immediately after access")
	}
	clock.Advance(sim.Minute)
	d.ChargeIdle()
	if !d.spunDown {
		t.Fatal("drive still spinning after idle timeout")
	}
}

func TestStats(t *testing.T) {
	d, _, _ := newKittyHawk(t)
	if _, err := d.Write(0, make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Read(5<<20, make([]byte, 2048)); err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.Writes != 1 || s.BytesWritten != 1024 || s.Reads != 1 || s.BytesRead != 2048 {
		t.Fatalf("stats %+v", s)
	}
	if s.RotateNs <= 0 {
		t.Error("no rotational latency recorded")
	}
}

// Property: the disk stores bytes faithfully regardless of access pattern.
func TestDiskReadYourWritesProperty(t *testing.T) {
	f := func(writes map[uint16]byte) bool {
		clock := sim.NewClock()
		d, err := New(Config{CapacityBytes: 1 << 20, Params: device.Fujitsu}, clock, sim.NewEnergyMeter())
		if err != nil {
			return false
		}
		for off, val := range writes {
			if _, err := d.Write(int64(off), []byte{val}); err != nil {
				return false
			}
		}
		buf := make([]byte, 1)
		for off, val := range writes {
			if _, err := d.Read(int64(off), buf); err != nil {
				return false
			}
			if buf[0] != val {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
