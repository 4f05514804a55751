// Package flash simulates a direct-mapped flash memory device of the kind
// the paper expects to replace disks in mobile computers.
//
// The model captures every property the paper's operating-system arguments
// rest on:
//
//   - byte-granularity random reads at near-DRAM speed;
//   - programming (writing) roughly two orders of magnitude slower than
//     reading, and only able to clear bits (1→0) — a region must be erased
//     back to all-ones before it can be rewritten;
//   - erasure in fixed-size blocks, slow, with a limited per-block
//     endurance (the guaranteed 100,000 cycles), after which the block
//     wears out;
//   - organisation into independent banks: an erase or program occupies
//     its bank, and reads to a busy bank stall until the bank is free,
//     while reads to other banks proceed at full speed (the paper's
//     motivation for partitioning flash into banks).
//
// Programs and erases can be issued synchronously (the caller's virtual
// time advances past the operation) or asynchronously (the operation
// occupies the bank in the background and only delays later operations
// that touch the same bank), which is how a write-back daemon hides flash
// write latency behind foreground reads.
package flash

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"

	"ssmobile/internal/device"
	"ssmobile/internal/obs"
	"ssmobile/internal/sim"
)

// Sentinel errors.
var (
	// ErrOutOfRange reports an access beyond the end of the device.
	ErrOutOfRange = errors.New("flash: address out of range")
	// ErrOverwrite reports a program that would need to set a 0 bit back
	// to 1, which only an erase can do.
	ErrOverwrite = errors.New("flash: program would set bits without erase")
	// ErrWornOut reports an erase on a block past its endurance limit.
	ErrWornOut = errors.New("flash: block worn out")
)

// Config fixes the geometry and part parameters of a simulated device.
type Config struct {
	// Banks is the number of independently accessible banks. The device
	// capacity is Banks × BlocksPerBank × BlockBytes.
	Banks int
	// BlocksPerBank is the number of erase blocks in each bank.
	BlocksPerBank int
	// BlockBytes is the size of the erase unit.
	BlockBytes int
	// Params supplies latency, energy and endurance figures; typically
	// device.IntelFlash or device.SunDiskFlash.
	Params device.Params
	// MeterCategory is the energy-meter category charged; defaults to
	// "flash".
	MeterCategory string
	// SpareUnitBytes and SpareBytes describe the out-of-band spare area:
	// every SpareUnitBytes of main storage carries SpareBytes of spare,
	// programmed with the same bit rules and erased together with its
	// unit's block. Translation layers persist their page metadata there
	// so the mapping can be rebuilt by scanning after a power loss. Zero
	// SpareBytes disables the spare area.
	SpareUnitBytes int
	SpareBytes     int
	// Obs receives the device's metrics and op spans; nil falls back to
	// obs.Default() (which may itself be nil — telemetry off).
	Obs *obs.Observer
	// Injector, when non-nil, is consulted before every destructive
	// operation and may cut power before, during, or after it (see
	// fault.go). Nil disables fault injection entirely.
	Injector Injector
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	if c.Banks <= 0 || c.BlocksPerBank <= 0 || c.BlockBytes <= 0 {
		return fmt.Errorf("flash: non-positive geometry %d×%d×%d", c.Banks, c.BlocksPerBank, c.BlockBytes)
	}
	if c.Params.Class != device.Flash {
		return fmt.Errorf("flash: params %q are %v, not flash", c.Params.Name, c.Params.Class)
	}
	if c.SpareBytes > 0 {
		if c.SpareUnitBytes <= 0 || c.BlockBytes%c.SpareUnitBytes != 0 {
			return fmt.Errorf("flash: spare unit %d must divide block size %d", c.SpareUnitBytes, c.BlockBytes)
		}
	}
	return nil
}

// Capacity reports the device capacity in bytes.
func (c Config) Capacity() int64 {
	return int64(c.Banks) * int64(c.BlocksPerBank) * int64(c.BlockBytes)
}

// Stats aggregates the operation counts an experiment reads after a run.
type Stats struct {
	Reads, Programs, Erases      int64
	BytesRead, BytesProgrammed   int64
	ReadStallNs                  int64 // time reads spent waiting on busy banks
	WornOutBlocks                int
	MaxEraseCount, TotalEraseOps int64
	EraseCountCoV                float64
}

// Device is one simulated flash part. It is not safe for concurrent use;
// the simulation is single-threaded by design.
type Device struct {
	cfg   Config
	clock *sim.Clock
	meter *sim.EnergyMeter
	obs   *obs.Observer

	data       []byte
	spare      []byte // OOB area, SpareBytes per SpareUnitBytes of main
	eraseCount []int64
	wornOut    []bool
	busyUntil  []sim.Time // per bank
	eraseUntil []sim.Time // per bank: end of the last async erase's busy window

	destructiveOps int64 // programs + spare programs + erases issued
	lost           bool  // dead from an injected power cut until Restore

	reads, programs, erases  *obs.Counter
	bytesRead, bytesProg     *obs.Counter
	readStallNs, progStallNs *obs.Counter
	bankBusyNs               []*obs.Counter // per bank: program and erase time
	lastIdleCharge           sim.Time

	// Wear attribution (see wear.go): every program and erase is also
	// charged to the observer's active obs.Cause, and bounded ring
	// samplers turn the cumulative totals into windowed burn rates.
	causeProg  map[obs.Cause]*obs.Counter
	causeErase map[obs.Cause]*obs.Counter
	eraseRate  *obs.RateSampler
	progRate   *obs.RateSampler
}

// New builds a device with every block in the erased (all 0xFF) state.
func New(cfg Config, clock *sim.Clock, meter *sim.EnergyMeter) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.MeterCategory == "" {
		cfg.MeterCategory = "flash"
	}
	o := obs.Or(cfg.Obs)
	lbl := func(op string) obs.Labels {
		return obs.Labels{"layer": "flash", "device": cfg.MeterCategory, "op": op}
	}
	d := &Device{
		cfg:         cfg,
		clock:       clock,
		meter:       meter,
		obs:         o,
		data:        make([]byte, cfg.Capacity()),
		eraseCount:  make([]int64, cfg.Banks*cfg.BlocksPerBank),
		wornOut:     make([]bool, cfg.Banks*cfg.BlocksPerBank),
		busyUntil:   make([]sim.Time, cfg.Banks),
		eraseUntil:  make([]sim.Time, cfg.Banks),
		reads:       o.Counter("ops_total", lbl("read")),
		programs:    o.Counter("ops_total", lbl("program")),
		erases:      o.Counter("ops_total", lbl("erase")),
		bytesRead:   o.Counter("bytes_total", lbl("read")),
		bytesProg:   o.Counter("bytes_total", lbl("program")),
		readStallNs: o.Counter("stall_ns_total", lbl("read")),
		progStallNs: o.Counter("stall_ns_total", lbl("program")),
		bankBusyNs:  make([]*obs.Counter, cfg.Banks),
	}
	for bank := range d.bankBusyNs {
		d.bankBusyNs[bank] = o.Counter("bank_busy_ns_total",
			obs.Labels{"layer": "flash", "device": cfg.MeterCategory, "bank": strconv.Itoa(bank)})
	}
	fillErased(d.data)
	if cfg.SpareBytes > 0 {
		d.spare = make([]byte, cfg.Capacity()/int64(cfg.SpareUnitBytes)*int64(cfg.SpareBytes))
		fillErased(d.spare)
	}
	d.initWear(o)
	return d, nil
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Meter returns the energy meter the device charges, so layers above can
// attribute span energy without threading the meter separately.
func (d *Device) Meter() *sim.EnergyMeter { return d.meter }

// Capacity reports the device capacity in bytes.
func (d *Device) Capacity() int64 { return d.cfg.Capacity() }

// NumBlocks reports the total number of erase blocks.
func (d *Device) NumBlocks() int { return d.cfg.Banks * d.cfg.BlocksPerBank }

// BlockBytes reports the erase-block size.
func (d *Device) BlockBytes() int { return d.cfg.BlockBytes }

// Banks reports the bank count.
func (d *Device) Banks() int { return d.cfg.Banks }

// BlockOf reports the erase block containing the byte address.
func (d *Device) BlockOf(addr int64) int { return int(addr / int64(d.cfg.BlockBytes)) }

// BankOf reports the bank containing the erase block.
func (d *Device) BankOf(block int) int { return block / d.cfg.BlocksPerBank }

// BlockAddr reports the first byte address of an erase block.
func (d *Device) BlockAddr(block int) int64 { return int64(block) * int64(d.cfg.BlockBytes) }

// fillErased sets b to the erased state, all 0xFF, by copying an erased
// prefix of itself forward: memmove's work rather than a byte loop's. The
// prefix doubles until it is a chunk that stays in cache, so filling a
// whole card is then write-only memory traffic.
func fillErased(b []byte) {
	if len(b) == 0 {
		return
	}
	b[0] = 0xFF
	for n := 1; n < len(b); {
		n += copy(b[n:], b[:min(n, 32<<10)])
	}
}

// firstOverwrite enforces that programming can only clear bits, bit for
// bit: it returns the index of the first byte of p with a bit set that
// old has cleared, or -1. Words are checked eight bytes at a time; the
// byte loop finishes the tail and names the offender inside a word.
func firstOverwrite(old, p []byte) int {
	old = old[:len(p)]
	i := 0
	for ; i+8 <= len(p); i += 8 {
		if ^binary.LittleEndian.Uint64(old[i:])&binary.LittleEndian.Uint64(p[i:]) != 0 {
			break
		}
	}
	for ; i < len(p); i++ {
		if ^old[i]&p[i] != 0 {
			return i
		}
	}
	return -1
}

func (d *Device) checkRange(addr int64, n int) error {
	if addr < 0 || n < 0 || addr+int64(n) > d.Capacity() {
		return fmt.Errorf("%w: [%d,%d) of %d", ErrOutOfRange, addr, addr+int64(n), d.Capacity())
	}
	return nil
}

// activePower reports the whole-part active draw in milliwatts.
func (d *Device) activePower() float64 {
	return d.cfg.Params.ActiveMilliwattsPerMB * float64(d.Capacity()) / (1 << 20)
}

// waitBank advances past any in-progress operation on the bank and reports
// how long the caller stalled. The part of the stall owed to a pending
// background erase is recorded as its own erase_stall span with the
// cleaning stage: EraseAsync pushed the erase cost off the cleaner's
// clock, and this is the moment — possibly inside an innocent read or
// program — where a foreground operation finally pays it.
func (d *Device) waitBank(bank int) sim.Duration {
	now := d.clock.Now()
	if d.busyUntil[bank] <= now {
		return 0
	}
	stall := d.busyUntil[bank].Sub(now)
	if eu := d.eraseUntil[bank]; eu > now {
		if eu > d.busyUntil[bank] {
			eu = d.busyUntil[bank]
		}
		sp := d.obs.StageSpan(d.clock, d.meter, "flash", "erase_stall", obs.StageClean)
		d.clock.AdvanceTo(eu)
		sp.End(0, nil)
	}
	d.clock.AdvanceTo(d.busyUntil[bank])
	return stall
}

// occupy queues dur of work on the bank: it starts when the bank frees up
// (or now, if idle) and extends the bank's busy window by dur.
func (d *Device) occupy(bank int, dur sim.Duration) {
	start := d.clock.Now()
	if d.busyUntil[bank] > start {
		start = d.busyUntil[bank]
	}
	d.busyUntil[bank] = start.Add(dur)
}

// BankBusyUntil reports when the bank becomes free; in the past means idle.
func (d *Device) BankBusyUntil(bank int) sim.Time { return d.busyUntil[bank] }

// Read copies len(buf) bytes starting at addr into buf, advancing the
// clock past any bank stalls and the transfer itself. It returns the total
// latency charged.
func (d *Device) Read(addr int64, buf []byte) (lat sim.Duration, err error) {
	sp := d.obs.StageSpan(d.clock, d.meter, "flash", "read", obs.StageFlash)
	n0 := int64(len(buf))
	defer func() { sp.End(n0, err) }()
	if d.lost {
		return 0, ErrPowerCut
	}
	if err := d.checkRange(addr, len(buf)); err != nil {
		return 0, err
	}
	// One host read is one op however many banks it crosses; only the
	// byte accounting is per segment.
	d.reads.Inc()
	var total sim.Duration
	// Process the range bank by bank so stalls charge only where due.
	for len(buf) > 0 {
		bank := d.BankOf(d.BlockOf(addr))
		bankEnd := int64(bank+1) * int64(d.cfg.BlocksPerBank) * int64(d.cfg.BlockBytes)
		n := len(buf)
		if int64(n) > bankEnd-addr {
			n = int(bankEnd - addr)
		}
		stall := d.waitBank(bank)
		d.readStallNs.Add(int64(stall))
		dur := sim.Duration(d.cfg.Params.ReadLatencyNs(n))
		d.clock.Advance(dur)
		d.meter.Charge(d.cfg.MeterCategory, sim.EnergyFor(d.activePower(), dur))
		copy(buf[:n], d.data[addr:addr+int64(n)])
		total += stall + dur
		addr += int64(n)
		buf = buf[n:]
		d.bytesRead.Add(int64(n))
	}
	return total, nil
}

// Peek returns the byte at addr without charging latency; tests and
// integrity checks use it.
func (d *Device) Peek(addr int64) byte { return d.data[addr] }

// SpareUnits reports the number of spare-area units (0 when disabled).
func (d *Device) SpareUnits() int64 {
	if d.cfg.SpareBytes == 0 {
		return 0
	}
	return d.Capacity() / int64(d.cfg.SpareUnitBytes)
}

// SpareBytes reports the spare size per unit.
func (d *Device) SpareBytes() int { return d.cfg.SpareBytes }

func (d *Device) checkSpare(unit int64) error {
	if d.cfg.SpareBytes == 0 {
		return fmt.Errorf("flash: device has no spare area")
	}
	if unit < 0 || unit >= d.SpareUnits() {
		return fmt.Errorf("%w: spare unit %d of %d", ErrOutOfRange, unit, d.SpareUnits())
	}
	return nil
}

// ReadSpare copies the unit's spare area into buf (at most SpareBytes),
// charging the read like any other access on the unit's bank.
func (d *Device) ReadSpare(unit int64, buf []byte) (lat sim.Duration, err error) {
	sp := d.obs.StageSpan(d.clock, d.meter, "flash", "read_spare", obs.StageFlash)
	defer func() { sp.End(int64(len(buf)), err) }()
	if d.lost {
		return 0, ErrPowerCut
	}
	if err := d.checkSpare(unit); err != nil {
		return 0, err
	}
	if len(buf) > d.cfg.SpareBytes {
		buf = buf[:d.cfg.SpareBytes]
	}
	bank := d.BankOf(d.BlockOf(unit * int64(d.cfg.SpareUnitBytes)))
	stall := d.waitBank(bank)
	d.readStallNs.Add(int64(stall))
	dur := sim.Duration(d.cfg.Params.ReadLatencyNs(len(buf)))
	d.clock.Advance(dur)
	d.meter.Charge(d.cfg.MeterCategory, sim.EnergyFor(d.activePower(), dur))
	copy(buf, d.spare[unit*int64(d.cfg.SpareBytes):])
	d.reads.Inc()
	d.bytesRead.Add(int64(len(buf)))
	return stall + dur, nil
}

// ProgramSpare writes p into the unit's spare area under the usual
// bit-clearing rule, synchronously.
func (d *Device) ProgramSpare(unit int64, p []byte) (lat sim.Duration, err error) {
	sp := d.obs.StageSpan(d.clock, d.meter, "flash", "program_spare", obs.StageFlash)
	defer func() { sp.End(int64(len(p)), err) }()
	if d.lost {
		return 0, ErrPowerCut
	}
	if err := d.checkSpare(unit); err != nil {
		return 0, err
	}
	if len(p) > d.cfg.SpareBytes {
		return 0, fmt.Errorf("%w: spare write of %d exceeds %d", ErrOutOfRange, len(p), d.cfg.SpareBytes)
	}
	base := unit * int64(d.cfg.SpareBytes)
	if i := firstOverwrite(d.spare[base:], p); i >= 0 {
		return 0, fmt.Errorf("%w: spare unit %d byte %d old %02x new %02x", ErrOverwrite, unit, i, d.spare[base+int64(i)], p[i])
	}
	switch d.consultInjector(OpProgramSpare, unit, len(p)) {
	case CutBefore:
		d.lost = true
		return 0, ErrPowerCut
	case CutDuring:
		tearProgram(d.spare[base:base+int64(len(p))], p)
		d.lost = true
		return 0, ErrPowerCut
	case CutAfter:
		copy(d.spare[base:], p)
		d.lost = true
		return 0, ErrPowerCut
	}
	bank := d.BankOf(d.BlockOf(unit * int64(d.cfg.SpareUnitBytes)))
	stall := d.waitBank(bank)
	d.progStallNs.Add(int64(stall))
	copy(d.spare[base:], p)
	dur := sim.Duration(d.cfg.Params.WriteLatencyNs(len(p)))
	d.bankBusyNs[bank].Add(int64(dur))
	d.clock.Advance(dur)
	d.meter.Charge(d.cfg.MeterCategory, sim.EnergyFor(d.activePower(), dur))
	d.programs.Inc()
	d.bytesProg.Add(int64(len(p)))
	d.chargeProgram(int64(len(p)))
	return stall + dur, nil
}

// PeekSpare returns the unit's spare contents without charging latency.
func (d *Device) PeekSpare(unit int64) []byte {
	if d.cfg.SpareBytes == 0 {
		return nil
	}
	out := make([]byte, d.cfg.SpareBytes)
	copy(out, d.spare[unit*int64(d.cfg.SpareBytes):])
	return out
}

// program validates and applies a program operation, returning its duration.
func (d *Device) program(addr int64, p []byte) (sim.Duration, error) {
	if d.lost {
		return 0, ErrPowerCut
	}
	if err := d.checkRange(addr, len(p)); err != nil {
		return 0, err
	}
	// Flash programming can only clear bits. Enforce it bit-exactly.
	if i := firstOverwrite(d.data[addr:], p); i >= 0 {
		return 0, fmt.Errorf("%w: addr %d old %02x new %02x", ErrOverwrite, addr+int64(i), d.data[addr+int64(i)], p[i])
	}
	switch d.consultInjector(OpProgram, addr, len(p)) {
	case CutBefore:
		d.lost = true
		return 0, ErrPowerCut
	case CutDuring:
		tearProgram(d.data[addr:addr+int64(len(p))], p)
		d.lost = true
		return 0, ErrPowerCut
	case CutAfter:
		copy(d.data[addr:], p)
		d.lost = true
		return 0, ErrPowerCut
	}
	copy(d.data[addr:], p)
	d.programs.Inc()
	d.bytesProg.Add(int64(len(p)))
	d.chargeProgram(int64(len(p)))
	dur := sim.Duration(d.cfg.Params.WriteLatencyNs(len(p)))
	d.bankBusyNs[d.BankOf(d.BlockOf(addr))].Add(int64(dur))
	d.meter.Charge(d.cfg.MeterCategory, sim.EnergyFor(d.activePower(), dur))
	return dur, nil
}

// Program writes p at addr synchronously: the caller's time advances past
// any bank stall plus the program time. The target region must be erased
// (or the write must only clear bits). Programs may not span banks.
func (d *Device) Program(addr int64, p []byte) (lat sim.Duration, err error) {
	sp := d.obs.StageSpan(d.clock, d.meter, "flash", "program", obs.StageFlash)
	defer func() { sp.End(int64(len(p)), err) }()
	if err := d.checkSameBank(addr, len(p)); err != nil {
		return 0, err
	}
	bank := d.BankOf(d.BlockOf(addr))
	stall := d.waitBank(bank)
	d.progStallNs.Add(int64(stall))
	dur, err := d.program(addr, p)
	if err != nil {
		return stall, err
	}
	d.clock.Advance(dur)
	return stall + dur, nil
}

// ProgramAsync posts a program: the data is applied immediately in the
// model, the bank is occupied for the stall-plus-program window, and the
// caller's clock does not advance. Later operations on the same bank wait.
func (d *Device) ProgramAsync(addr int64, p []byte) (err error) {
	sp := d.obs.StageSpan(d.clock, d.meter, "flash", "program_async", obs.StageFlash)
	defer func() { sp.End(int64(len(p)), err) }()
	if err := d.checkSameBank(addr, len(p)); err != nil {
		return err
	}
	bank := d.BankOf(d.BlockOf(addr))
	dur, err := d.program(addr, p)
	if err != nil {
		return err
	}
	d.occupy(bank, dur)
	return nil
}

func (d *Device) checkSameBank(addr int64, n int) error {
	if err := d.checkRange(addr, n); err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	first := d.BankOf(d.BlockOf(addr))
	last := d.BankOf(d.BlockOf(addr + int64(n) - 1))
	if first != last {
		return fmt.Errorf("flash: program spans banks %d..%d", first, last)
	}
	return nil
}

// erase validates and applies an erase, returning its duration.
func (d *Device) erase(block int) (sim.Duration, error) {
	if d.lost {
		return 0, ErrPowerCut
	}
	if block < 0 || block >= d.NumBlocks() {
		return 0, fmt.Errorf("%w: block %d of %d", ErrOutOfRange, block, d.NumBlocks())
	}
	if d.wornOut[block] {
		return 0, fmt.Errorf("%w: block %d after %d cycles", ErrWornOut, block, d.eraseCount[block])
	}
	switch d.consultInjector(OpErase, int64(block), d.cfg.BlockBytes) {
	case CutBefore:
		d.lost = true
		return 0, ErrPowerCut
	case CutDuring:
		// The erase pulses partly accrued: the cycle counts against the
		// block's endurance, but the array is left trembling and must be
		// erased again before it can hold data.
		d.noteEraseCycle(block)
		d.trembleBlock(block)
		d.lost = true
		return 0, ErrPowerCut
	case CutAfter:
		d.noteEraseCycle(block)
		d.applyErase(block)
		d.lost = true
		return 0, ErrPowerCut
	}
	d.noteEraseCycle(block)
	d.applyErase(block)
	d.erases.Inc()
	d.chargeErase()
	dur := sim.Duration(d.cfg.Params.EraseLatencyNs)
	d.bankBusyNs[d.BankOf(block)].Add(int64(dur))
	d.meter.Charge(d.cfg.MeterCategory, sim.EnergyFor(d.activePower(), dur))
	return dur, nil
}

// noteEraseCycle counts one erase cycle against the block's endurance.
func (d *Device) noteEraseCycle(block int) {
	d.eraseCount[block]++
	if lim := d.cfg.Params.EnduranceCycles; lim > 0 && d.eraseCount[block] >= lim {
		// The guaranteed cycle count is exhausted; this erase still
		// succeeds, further ones fail.
		d.wornOut[block] = true
	}
}

// applyErase resets the block's data and spare bytes to the erased state.
func (d *Device) applyErase(block int) {
	start := d.BlockAddr(block)
	fillErased(d.data[start : start+int64(d.cfg.BlockBytes)])
	if d.cfg.SpareBytes > 0 {
		unitsPerBlock := int64(d.cfg.BlockBytes / d.cfg.SpareUnitBytes)
		sb := int64(d.cfg.SpareBytes)
		first := start / int64(d.cfg.SpareUnitBytes) * sb
		fillErased(d.spare[first : first+unitsPerBlock*sb])
	}
}

// Erase erases a block synchronously, advancing the caller's clock.
func (d *Device) Erase(block int) (lat sim.Duration, err error) {
	sp := d.obs.StageSpan(d.clock, d.meter, "flash", "erase", obs.StageFlash)
	defer func() { sp.End(int64(d.cfg.BlockBytes), err) }()
	if block < 0 || block >= d.NumBlocks() {
		return 0, fmt.Errorf("%w: block %d of %d", ErrOutOfRange, block, d.NumBlocks())
	}
	bank := d.BankOf(block)
	stall := d.waitBank(bank)
	dur, err := d.erase(block)
	if err != nil {
		return stall, err
	}
	d.clock.Advance(dur)
	return stall + dur, nil
}

// EraseAsync starts an erase in the background: the block's contents are
// reset in the model, the bank is occupied until the erase would finish,
// and the caller's clock does not advance. This is how a cleaner erases
// reclaimed blocks without stalling the foreground.
func (d *Device) EraseAsync(block int) (err error) {
	sp := d.obs.StageSpan(d.clock, d.meter, "flash", "erase_async", obs.StageFlash)
	defer func() { sp.End(int64(d.cfg.BlockBytes), err) }()
	if block < 0 || block >= d.NumBlocks() {
		return fmt.Errorf("%w: block %d of %d", ErrOutOfRange, block, d.NumBlocks())
	}
	bank := d.BankOf(block)
	dur, err := d.erase(block)
	if err != nil {
		return err
	}
	d.occupy(bank, dur)
	// Everything queued on the bank up to this point must drain before
	// the erase completes, so the whole busy window is erase-attributable
	// for stall accounting (see waitBank).
	d.eraseUntil[bank] = d.busyUntil[bank]
	return nil
}

// WornOut reports whether the block has exceeded its endurance.
func (d *Device) WornOut(block int) bool { return d.wornOut[block] }

// EraseCount reports the number of erases the block has sustained.
func (d *Device) EraseCount(block int) int64 { return d.eraseCount[block] }

// EraseCounts returns a copy of the per-block erase counters.
func (d *Device) EraseCounts() []int64 {
	out := make([]int64, len(d.eraseCount))
	copy(out, d.eraseCount)
	return out
}

// ChargeIdle charges standby power for the span since the last idle charge
// (or the epoch). The driving layer calls it at the end of a run.
func (d *Device) ChargeIdle() {
	now := d.clock.Now()
	if now <= d.lastIdleCharge {
		return
	}
	idle := d.cfg.Params.IdleMilliwattsPerMB * float64(d.Capacity()) / (1 << 20)
	d.meter.Charge(d.cfg.MeterCategory+"-idle", sim.EnergyFor(idle, now.Sub(d.lastIdleCharge)))
	d.lastIdleCharge = now
}

// BytesProgrammed reports the bytes programmed so far, data and spare:
// the one device total the write-amplification gauge and the engines'
// control paths read, without Stats' scan over every block's wear.
func (d *Device) BytesProgrammed() int64 { return d.bytesProg.Value() }

// Stats summarises the device counters.
func (d *Device) Stats() Stats {
	worn := 0
	for _, w := range d.wornOut {
		if w {
			worn++
		}
	}
	return Stats{
		Reads:           d.reads.Value(),
		Programs:        d.programs.Value(),
		Erases:          d.erases.Value(),
		BytesRead:       d.bytesRead.Value(),
		BytesProgrammed: d.bytesProg.Value(),
		ReadStallNs:     d.readStallNs.Value(),
		WornOutBlocks:   worn,
		MaxEraseCount:   sim.MaxInt64(d.eraseCount),
		TotalEraseOps:   d.erases.Value(),
		EraseCountCoV:   sim.CoV(d.eraseCount),
	}
}
