// Package dram simulates the battery-backed DRAM that serves as primary
// storage in the paper's solid-state mobile computer.
//
// The model captures the properties the paper leans on:
//
//   - fast, uniform random access for both reads and writes;
//   - volatility tempered by batteries: the primary battery pack keeps an
//     otherwise idle machine's memory alive "for many days", and a small
//     lithium backup battery covers "many hours" more — long enough to
//     swap primary batteries — but when both are exhausted (or the machine
//     loses power abruptly) the contents are gone;
//   - an operating-system crash, as opposed to a power loss, does NOT
//     destroy DRAM contents; the recovery-box style metadata techniques in
//     the file system depend on that distinction.
package dram

import (
	"errors"
	"fmt"

	"ssmobile/internal/device"
	"ssmobile/internal/obs"
	"ssmobile/internal/sim"
)

// Sentinel errors.
var (
	// ErrOutOfRange reports an access beyond the end of the device.
	ErrOutOfRange = errors.New("dram: address out of range")
	// ErrPowerLost reports an access to a device whose contents were lost
	// to a power failure and not yet restored.
	ErrPowerLost = errors.New("dram: contents lost to power failure")
)

// meterCategory is the energy-meter category an array charges, and its
// device label.
const meterCategory = "dram"

// Config fixes the size and part parameters of a simulated DRAM array.
type Config struct {
	// CapacityBytes is the array size.
	CapacityBytes int64
	// Params supplies latency and power figures; typically device.NECDram.
	Params device.Params
	// Obs receives the device's metrics and op spans; nil means standalone
	// collectors, nothing exported.
	Obs *obs.Observer
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.CapacityBytes <= 0 {
		return fmt.Errorf("dram: non-positive capacity %d", c.CapacityBytes)
	}
	if c.Params.Class != device.DRAM {
		return fmt.Errorf("dram: params %q are %v, not DRAM", c.Params.Name, c.Params.Class)
	}
	return nil
}

// Stats aggregates operation counts.
type Stats struct {
	Reads, Writes           int64
	BytesRead, BytesWritten int64
	PowerFailures           int64
}

// Device is one simulated battery-backed DRAM array.
type Device struct {
	cfg   Config
	clock *sim.Clock
	meter *sim.EnergyMeter
	obs   *obs.Observer
	// active and idle are the meter's accounts for meterCategory and its
	// "-idle" twin, resolved once in New.
	active, idle *sim.EnergyAccount

	data []byte
	lost bool

	reads, writes           *obs.Counter
	bytesRead, bytesWritten *obs.Counter
	powerFailures           *obs.Counter
	lastIdleCharge          sim.Time
}

// New builds a zero-filled DRAM array.
func New(cfg Config, clock *sim.Clock, meter *sim.EnergyMeter) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	o := cfg.Obs
	lbl := func(op string) obs.Labels {
		return obs.Labels{"layer": "dram", "device": meterCategory, "op": op}
	}
	return &Device{
		cfg:           cfg,
		clock:         clock,
		meter:         meter,
		obs:           o,
		active:        meter.Account(meterCategory),
		idle:          meter.Account(meterCategory + "-idle"),
		data:          make([]byte, cfg.CapacityBytes),
		reads:         o.Counter("ops_total", lbl("read")),
		writes:        o.Counter("ops_total", lbl("write")),
		bytesRead:     o.Counter("bytes_total", lbl("read")),
		bytesWritten:  o.Counter("bytes_total", lbl("write")),
		powerFailures: o.Counter("power_failures_total", obs.Labels{"layer": "dram", "device": meterCategory}),
	}, nil
}

// Capacity reports the array size in bytes.
func (d *Device) Capacity() int64 { return d.cfg.CapacityBytes }

// Meter returns the energy meter the device charges, so layers above can
// attribute span energy without threading the meter separately.
func (d *Device) Meter() *sim.EnergyMeter { return d.meter }

func (d *Device) checkRange(addr int64, n int) error {
	if addr < 0 || n < 0 || addr+int64(n) > d.Capacity() {
		return fmt.Errorf("%w: [%d,%d) of %d", ErrOutOfRange, addr, addr+int64(n), d.Capacity())
	}
	return nil
}

func (d *Device) activePower() float64 {
	return d.cfg.Params.ActiveMilliwattsPerMB * float64(d.Capacity()) / (1 << 20)
}

// span opens an op span against this array's clock and meter. DRAM time
// is the write buffer doing its job, so it declares the buffer
// latency-attribution stage.
func (d *Device) span(op string) obs.SpanRef {
	return d.obs.StageSpan(d.clock, d.meter, "dram", op, obs.StageBuffer)
}

// IdleMilliwatts reports the self-refresh draw of the whole array — the
// figure that, against a battery capacity, yields the paper's retention
// spans.
func (d *Device) IdleMilliwatts() float64 {
	return d.cfg.Params.IdleMilliwattsPerMB * float64(d.Capacity()) / (1 << 20)
}

// Read copies len(buf) bytes at addr into buf and returns the latency.
func (d *Device) Read(addr int64, buf []byte) (sim.Duration, error) {
	return d.ReadWindow(addr, len(buf), 0, buf)
}

// ReadWindow reads n bytes at addr — charged, counted and spanned exactly
// as Read of an n-byte buffer — but copies only the window [off,
// off+len(buf)) of them into buf. A caller that wants part of a stored
// block pays for the block without bouncing it through a scratch buffer.
func (d *Device) ReadWindow(addr int64, n, off int, buf []byte) (sim.Duration, error) {
	if d.lost {
		return 0, ErrPowerLost
	}
	if err := d.checkRange(addr, n); err != nil {
		return 0, err
	}
	if off < 0 || off > n-len(buf) {
		return 0, fmt.Errorf("%w: window [%d,%d) of a %d-byte read", ErrOutOfRange, off, off+len(buf), n)
	}
	sp := d.span("read")
	defer sp.End(int64(n), nil)
	dur := sim.Duration(d.cfg.Params.ReadLatencyNs(n))
	d.clock.Advance(dur)
	d.active.Charge(sim.EnergyFor(d.activePower(), dur))
	at := addr + int64(off)
	copy(buf, d.data[at:at+int64(len(buf))])
	d.reads.Inc()
	d.bytesRead.Add(int64(n))
	return dur, nil
}

// Write stores p at addr and returns the latency. DRAM needs no erase.
func (d *Device) Write(addr int64, p []byte) (sim.Duration, error) {
	if d.lost {
		return 0, ErrPowerLost
	}
	if err := d.checkRange(addr, len(p)); err != nil {
		return 0, err
	}
	sp := d.span("write")
	defer sp.End(int64(len(p)), nil)
	dur := sim.Duration(d.cfg.Params.WriteLatencyNs(len(p)))
	d.clock.Advance(dur)
	d.active.Charge(sim.EnergyFor(d.activePower(), dur))
	copy(d.data[addr:], p)
	d.writes.Inc()
	d.bytesWritten.Add(int64(len(p)))
	return dur, nil
}

// Lost reports whether the contents are currently lost to a power failure.
func (d *Device) Lost() bool { return d.lost }

// PowerFail models an abrupt, unprotected power loss: all contents are
// destroyed. An OS crash is NOT a power failure — battery-backed DRAM
// survives OS crashes, which is the premise of keeping file data in memory.
func (d *Device) PowerFail() {
	clear(d.data)
	d.lost = true
	d.powerFailures.Inc()
}

// Restore returns the (now empty) device to service after a power failure,
// as when fresh batteries are installed and the system reboots.
func (d *Device) Restore() { d.lost = false }

// ChargeIdle charges self-refresh power since the last idle charge.
func (d *Device) ChargeIdle() {
	now := d.clock.Now()
	if now <= d.lastIdleCharge {
		return
	}
	d.idle.Charge(sim.EnergyFor(d.IdleMilliwatts(), now.Sub(d.lastIdleCharge)))
	d.lastIdleCharge = now
}

// Stats summarises the device counters.
func (d *Device) Stats() Stats {
	return Stats{
		Reads:         d.reads.Value(),
		Writes:        d.writes.Value(),
		BytesRead:     d.bytesRead.Value(),
		BytesWritten:  d.bytesWritten.Value(),
		PowerFailures: d.powerFailures.Value(),
	}
}
