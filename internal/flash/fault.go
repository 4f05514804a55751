package flash

// Power-cut fault injection.
//
// The paper's whole stability argument rests on surviving abrupt power
// loss: battery-backed DRAM is the only volatile-looking store, and the
// flash mapping is rebuilt by scanning out-of-band records after a cut.
// Quiescent-point power failures (dram.Device.PowerFail between
// operations) exercise the easy half of that story. The hard half is a
// cut that lands MID-OPERATION — between a page's data program and its
// out-of-band record, halfway through a program pulse, or in the middle
// of a block erase. The Injector hook models exactly those windows.
//
// An injector is consulted once per destructive device operation
// (Program, ProgramSpare, Erase — sync or async), in issue order, with a
// running zero-based op index. It decides the op's fate:
//
//   - CutBefore: power dies before any bit changes;
//   - CutDuring: the op is torn — a program leaves a deterministic prefix
//     of its bits cleared, an erase leaves the block in a partially
//     erased "trembling" state that reads back mixed data and must be
//     re-erased before it can hold data again;
//   - CutAfter: the op's array effect completes, then power dies — for a
//     page program this is precisely the window where the data landed but
//     the OOB record never will.
//
// After any cut the device refuses every further operation with
// ErrPowerCut until Restore is called, the way a real part is simply off
// until power returns. Crash-point enumeration (internal/crashtest) runs
// a workload once to count destructive ops, then replays it once per
// (op index, fate), recovers, and checks invariants.
//
// With a nil Injector none of this machinery runs and the device is
// byte-for-byte the deterministic device the experiments depend on.

import "errors"

// ErrPowerCut reports an operation on a device whose power was cut by a
// fault injection (or that was the victim op itself). The device stays
// dead until Restore.
var ErrPowerCut = errors.New("flash: power cut")

// OpKind identifies one destructive operation class for the injector.
type OpKind int

// Destructive op kinds, in the order the constants are worth reading:
// main-array programs, spare-area programs, block erases.
const (
	OpProgram OpKind = iota
	OpProgramSpare
	OpErase
)

// Outcome is the injector's decision for one destructive op.
type Outcome int

// Outcomes. The zero value lets the op run normally.
const (
	// Run executes the op normally.
	Run Outcome = iota
	// CutBefore cuts power before the op changes any bit.
	CutBefore
	// CutDuring cuts power mid-op: programs are torn (a deterministic
	// prefix of the bits to be cleared is cleared), erases leave the
	// block trembling (partially erased, reads back mixed data).
	CutDuring
	// CutAfter lets the op's array effect complete, then cuts power —
	// for a data program, the window before its OOB record.
	CutAfter
)

// Injector decides the fate of destructive flash operations. index is
// the zero-based running count of destructive ops issued to the device
// (validation failures do not consume an index); addr is the byte
// address of a program, the spare-unit index of a spare program, or the
// block number of an erase; n is the payload length in bytes (the block
// size for erases). Implementations must be deterministic.
type Injector interface {
	Fault(index int64, kind OpKind, addr int64, n int) Outcome
}

// InjectorFunc adapts a function to the Injector interface.
type InjectorFunc func(index int64, kind OpKind, addr int64, n int) Outcome

// Fault calls f.
func (f InjectorFunc) Fault(index int64, kind OpKind, addr int64, n int) Outcome {
	return f(index, kind, addr, n)
}

// CutAt is the canonical enumeration injector: it applies Fate to the
// destructive op with the given Index and lets every other op run. The
// zero Index with Fate CutBefore cuts power before the first destructive
// op ever lands.
type CutAt struct {
	Index int64
	Fate  Outcome
}

// Fault implements Injector.
func (c *CutAt) Fault(index int64, kind OpKind, addr int64, n int) Outcome {
	if index == c.Index {
		return c.Fate
	}
	return Run
}

// DestructiveOps reports how many destructive operations (programs,
// spare programs, erases) have been issued to the device, including the
// one a cut landed on. Crash-point enumeration runs the workload once
// uncut to learn the op count, then sweeps the cut index over it.
func (d *Device) DestructiveOps() int64 { return d.destructiveOps }

// Lost reports whether the device is currently dead from an injected
// power cut.
func (d *Device) Lost() bool { return d.lost }

// Restore returns the device to service after a power cut, as when power
// comes back and the system reboots. Bank busy windows are cleared — an
// interrupted operation is simply over — but the array contents are
// whatever the cut left behind: torn pages keep their partial prefix and
// trembling blocks keep their mixed data until something re-erases them.
func (d *Device) Restore() {
	d.lost = false
	for i := range d.busyUntil {
		d.busyUntil[i] = 0
	}
}

// SetInjector replaces the device's fault injector (nil disarms it).
// Recovery harnesses disarm the injector before remounting, so the
// recovery path itself runs on healthy hardware.
func (d *Device) SetInjector(inj Injector) { d.cfg.Injector = inj }

// consultInjector assigns the next destructive-op index and asks the
// injector (if any) for the op's fate.
func (d *Device) consultInjector(kind OpKind, addr int64, n int) Outcome {
	idx := d.destructiveOps
	d.destructiveOps++
	if d.cfg.Injector == nil {
		return Run
	}
	return d.cfg.Injector.Fault(idx, kind, addr, n)
}

// tearProgram applies the deterministic torn prefix of programming p into
// dst: the first three quarters of the payload's bytes land in full, and
// in the byte at the tear point only the high-nibble bits are cleared, so
// the byte holds a value that is neither the old nor the intended one.
// The tear point falls late in the payload on purpose: for an OOB record
// it lands past the header fields and inside the tag, the worst torn
// record — one whose magic, sequence and page number all read back
// intact — which recovery must still reject.
func tearProgram(dst, p []byte) {
	k := 3 * len(p) / 4
	for i := 0; i < k; i++ {
		dst[i] &= p[i]
	}
	if k < len(p) {
		dst[k] &= p[k] | 0x0F
	}
}

// trembleByte is the deterministic partial-erase pattern: alternating
// bytes have alternating bit sets pulled toward the erased state, so the
// block reads back a mix of stale data and half-erased garbage.
func trembleByte(old byte, i int64) byte {
	if i%2 == 0 {
		return old | 0xAA
	}
	return old | 0x55
}

// trembleBlock applies the interrupted-erase state to a block: every
// data and spare byte has a deterministic subset of its bits pulled to 1.
// The block is not erased — it must be erased again before it can be
// programmed — and any out-of-band records it held are corrupted. Pulling
// bits to 1 leaves an erased byte erased, so only the data bytes below the
// block's frontier change and the frontier stays where it is.
func (d *Device) trembleBlock(block int) {
	data := d.blockData(block)
	for i := int64(0); i < d.erasedFrom[block]; i++ {
		data[i] = trembleByte(data[i], i)
	}
	if d.cfg.SpareBytes > 0 {
		start := d.BlockAddr(block)
		sb := int64(d.cfg.SpareBytes)
		first := start / int64(d.cfg.SpareUnitBytes) * sb
		n := int64(d.cfg.BlockBytes/d.cfg.SpareUnitBytes) * sb
		for i := int64(0); i < n; i++ {
			d.spare[first+i] = trembleByte(d.spare[first+i], i)
		}
	}
}
