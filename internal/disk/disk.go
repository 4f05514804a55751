// Package disk simulates the small magnetic disk drives the paper argues
// flash will displace: the Hewlett-Packard KittyHawk 1.3-inch drive and
// the Fujitsu M2633 2.5-inch drive.
//
// The model is a classic mechanical one — seek time linear in cylinder
// distance (calibrated so the average seek covers one third of the
// cylinders), half-rotation average rotational latency, streaming
// transfer — plus the mobile-specific power management the paper's energy
// comparisons need: the drive spins down after an idle timeout and pays a
// spin-up delay (and energy surge) on the next access.
package disk

import (
	"errors"
	"fmt"

	"ssmobile/internal/device"
	"ssmobile/internal/obs"
	"ssmobile/internal/sim"
)

// SectorBytes is the fixed sector size of the simulated drives.
const SectorBytes = 512

// bytesPerCylinder is the cylinder size of both drives: 32 sectors per
// track on each of 2 heads.
const bytesPerCylinder = 32 * 2 * SectorBytes

// ErrOutOfRange reports an access beyond the end of the drive.
var ErrOutOfRange = errors.New("disk: address out of range")

// meterCategory is the energy-meter category a drive charges, and its
// device label.
const meterCategory = "disk"

// Config fixes the geometry, part parameters and power management of a
// simulated drive.
type Config struct {
	// CapacityBytes is the drive size; rounded down to whole cylinders.
	CapacityBytes int64
	// Params supplies the mechanical and power figures; typically
	// device.KittyHawk or device.Fujitsu.
	Params device.Params
	// SpindownTimeout is how long the drive idles before spinning down to
	// save power; zero disables spindown.
	SpindownTimeout sim.Duration
	// Obs receives the drive's metrics and op spans; nil means standalone
	// collectors, nothing exported.
	Obs *obs.Observer
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.CapacityBytes < bytesPerCylinder {
		return fmt.Errorf("disk: capacity %d below one cylinder", c.CapacityBytes)
	}
	if c.Params.Class != device.Disk {
		return fmt.Errorf("disk: params %q are %v, not disk", c.Params.Name, c.Params.Class)
	}
	return nil
}

// Stats aggregates the drive's operation counters.
type Stats struct {
	Reads, Writes           int64
	BytesRead, BytesWritten int64
	SeekNs, RotateNs        int64
	Spinups                 int64
}

// Device is one simulated drive. Not safe for concurrent use.
type Device struct {
	cfg   Config
	clock *sim.Clock
	meter *sim.EnergyMeter

	data      []byte
	cylinders int
	headCyl   int

	spunDown    bool
	lastEnd     sim.Time // when the last operation finished
	lastCharged sim.Time // power charged through this instant

	obs                     *obs.Observer
	reads, writes           *obs.Counter
	bytesRead, bytesWritten *obs.Counter
	seekNs, rotateNs        *obs.Counter
	spinups                 *obs.Counter
}

// New builds a drive with zeroed media, head at cylinder 0, spinning.
func New(cfg Config, clock *sim.Clock, meter *sim.EnergyMeter) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cyls := int(cfg.CapacityBytes / bytesPerCylinder)
	o := cfg.Obs
	lbl := func(op string) obs.Labels {
		return obs.Labels{"layer": "disk", "device": meterCategory, "op": op}
	}
	return &Device{
		cfg:          cfg,
		clock:        clock,
		meter:        meter,
		data:         make([]byte, int64(cyls)*bytesPerCylinder),
		cylinders:    cyls,
		obs:          o,
		reads:        o.Counter("ops_total", lbl("read")),
		writes:       o.Counter("ops_total", lbl("write")),
		bytesRead:    o.Counter("bytes_total", lbl("read")),
		bytesWritten: o.Counter("bytes_total", lbl("write")),
		seekNs:       o.Counter("seek_ns_total", lbl("access")),
		rotateNs:     o.Counter("rotate_ns_total", lbl("access")),
		spinups:      o.Counter("spinups_total", obs.Labels{"layer": "disk", "device": meterCategory}),
	}, nil
}

// Capacity reports the usable drive size (whole cylinders).
func (d *Device) Capacity() int64 { return int64(len(d.data)) }

// Config returns the drive configuration.
func (d *Device) Config() Config { return d.cfg }

func (d *Device) cylinderOf(addr int64) int { return int(addr / bytesPerCylinder) }

// seekDuration models seek time as linear in distance, calibrated so that
// the datasheet average seek corresponds to a one-third-stroke move.
func (d *Device) seekDuration(from, to int) sim.Duration {
	if from == to {
		return 0
	}
	dist := from - to
	if dist < 0 {
		dist = -dist
	}
	third := float64(d.cylinders) / 3
	ttk := d.cfg.Params.TrackToTrackNs
	avg := d.cfg.Params.AvgSeekNs
	ns := ttk + (avg-ttk)*float64(dist-1)/third
	return sim.Duration(ns)
}

// halfRotation is the average rotational latency.
func (d *Device) halfRotation() sim.Duration {
	secPerRev := 60.0 / d.cfg.Params.RotationalRPM
	return sim.Duration(secPerRev / 2 * 1e9)
}

func (d *Device) transfer(n int) sim.Duration {
	return sim.Duration(float64(n) / (d.cfg.Params.TransferMBPerSec * 1e6) * 1e9)
}

// settlePower charges idle/sleep power for the span since the last charge
// and applies the spindown policy. Called at the start of every operation
// and by ChargeIdle.
func (d *Device) settlePower(now sim.Time) {
	if now <= d.lastCharged {
		return
	}
	gap := now.Sub(d.lastCharged)
	cat := meterCategory + "-idle"
	switch {
	case d.spunDown:
		d.meter.Charge(cat, sim.EnergyFor(d.cfg.Params.SleepMilliwatts, gap))
	case d.cfg.SpindownTimeout > 0 && gap > d.cfg.SpindownTimeout:
		// Spinning for the timeout, asleep for the rest.
		d.meter.Charge(cat, sim.EnergyFor(d.cfg.Params.IdleMilliwatts, d.cfg.SpindownTimeout))
		d.meter.Charge(cat, sim.EnergyFor(d.cfg.Params.SleepMilliwatts, gap-d.cfg.SpindownTimeout))
		d.spunDown = true
	default:
		d.meter.Charge(cat, sim.EnergyFor(d.cfg.Params.IdleMilliwatts, gap))
	}
	d.lastCharged = now
}

// access performs the mechanical part common to reads and writes and
// returns the total latency, which it has already advanced the clock by.
func (d *Device) access(addr int64, n int) sim.Duration {
	now := d.clock.Now()
	d.settlePower(now)

	var total sim.Duration
	if d.spunDown {
		spin := sim.Duration(d.cfg.Params.SpinupNs)
		total += spin
		d.spunDown = false
		d.spinups.Inc()
		// Spin-up draws roughly double active power.
		d.meter.Charge(meterCategory, sim.EnergyFor(2*d.cfg.Params.ActiveMilliwatts, spin))
	}

	target := d.cylinderOf(addr)
	seek := d.seekDuration(d.headCyl, target)
	rot := d.halfRotation()
	xfer := d.transfer(n) + sim.Duration(d.cfg.Params.SetupNs)
	d.headCyl = target
	d.seekNs.Add(int64(seek))
	d.rotateNs.Add(int64(rot))

	op := seek + rot + xfer
	total += op
	d.meter.Charge(meterCategory, sim.EnergyFor(d.cfg.Params.ActiveMilliwatts, op))
	d.clock.Advance(total)
	d.lastEnd = d.clock.Now()
	d.lastCharged = d.lastEnd
	return total
}

func (d *Device) checkRange(addr int64, n int) error {
	if addr < 0 || n < 0 || addr+int64(n) > d.Capacity() {
		return fmt.Errorf("%w: [%d,%d) of %d", ErrOutOfRange, addr, addr+int64(n), d.Capacity())
	}
	return nil
}

// Read copies len(buf) bytes at addr into buf, paying spin-up, seek,
// rotation and transfer as appropriate, and returns the latency.
func (d *Device) Read(addr int64, buf []byte) (sim.Duration, error) {
	if err := d.checkRange(addr, len(buf)); err != nil {
		return 0, err
	}
	sp := d.obs.Span(d.clock, d.meter, "disk", "read")
	defer sp.End(int64(len(buf)), nil)
	lat := d.access(addr, len(buf))
	copy(buf, d.data[addr:addr+int64(len(buf))])
	d.reads.Inc()
	d.bytesRead.Add(int64(len(buf)))
	return lat, nil
}

// Write stores p at addr with the same mechanical costs as Read.
func (d *Device) Write(addr int64, p []byte) (sim.Duration, error) {
	if err := d.checkRange(addr, len(p)); err != nil {
		return 0, err
	}
	sp := d.obs.Span(d.clock, d.meter, "disk", "write")
	defer sp.End(int64(len(p)), nil)
	lat := d.access(addr, len(p))
	copy(d.data[addr:], p)
	d.writes.Inc()
	d.bytesWritten.Add(int64(len(p)))
	return lat, nil
}

// ChargeIdle settles idle/sleep power up to the present.
func (d *Device) ChargeIdle() { d.settlePower(d.clock.Now()) }

// Stats summarises the drive counters.
func (d *Device) Stats() Stats {
	return Stats{
		Reads:        d.reads.Value(),
		Writes:       d.writes.Value(),
		BytesRead:    d.bytesRead.Value(),
		BytesWritten: d.bytesWritten.Value(),
		SeekNs:       d.seekNs.Value(),
		RotateNs:     d.rotateNs.Value(),
		Spinups:      d.spinups.Value(),
	}
}
