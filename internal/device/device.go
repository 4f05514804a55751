// Package device holds the storage-device parameter catalog and the
// technology-trend model from Section 2 of the paper.
//
// The paper's argument is built on the published characteristics of five
// 1993 parts — an NEC low-power DRAM, Intel and SunDisk flash products, and
// Hewlett-Packard KittyHawk and Fujitsu disk drives — plus two trend
// constants from Patterson & Hennessy: semiconductor memory improves about
// 40% per year in both $/MB and MB/in³ while disks improve about 25% per
// year. The catalog here records those parameters (exact where the paper
// gives a number, datasheet-typical where it gives only a range) and the
// trend model extrapolates them, reproducing the paper's crossover claims.
package device

import "fmt"

// Class labels the three storage technologies the paper compares.
type Class int

// Storage technology classes.
const (
	DRAM Class = iota
	Flash
	Disk
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case DRAM:
		return "DRAM"
	case Flash:
		return "flash"
	case Disk:
		return "disk"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Params describes one storage product well enough to simulate it and to
// compare it on the paper's five axes: performance, cost, size, power, and
// (for flash) endurance.
type Params struct {
	Name  string
	Class Class
	Year  int // year of the quoted figures

	// CapacityMB is the capacity of the quoted configuration in megabytes.
	CapacityMB float64

	// DollarsPerMB is the quoted cost per megabyte.
	DollarsPerMB float64

	// MBPerCubicInch is the volumetric density.
	MBPerCubicInch float64

	// ReadLatencyNsPerByte and WriteLatencyNsPerByte are the sustained
	// per-byte access costs for random access; SetupNs is the fixed
	// per-operation overhead (command issue for memories, controller
	// overhead for disks — seek and rotation are modelled separately by
	// the disk simulator).
	ReadLatencyNsPerByte  float64
	WriteLatencyNsPerByte float64
	SetupNs               float64

	// EraseBlockBytes and EraseLatencyNs describe the flash erase unit;
	// zero for non-flash devices. EnduranceCycles is the guaranteed
	// per-block erase/write cycle count.
	EraseBlockBytes int
	EraseLatencyNs  float64
	EnduranceCycles int64

	// ActiveMilliwattsPerMB and IdleMilliwattsPerMB describe power draw
	// scaled by capacity, the way the paper quotes it for memories. For
	// disks the figures are for the whole mechanism and capacity scaling
	// does not apply; the disk simulator uses the whole-drive numbers.
	ActiveMilliwattsPerMB float64
	IdleMilliwattsPerMB   float64

	// Disk-mechanism figures (zero for memories).
	AvgSeekNs        float64
	TrackToTrackNs   float64
	RotationalRPM    float64
	TransferMBPerSec float64
	SpinupNs         float64
	ActiveMilliwatts float64 // whole-drive, seeking/transferring
	IdleMilliwatts   float64 // whole-drive, spinning
	SleepMilliwatts  float64 // whole-drive, spun down
}

// The 1993 catalog. Values marked "paper" are stated in the text; the rest
// are typical datasheet values for the named part, chosen to be consistent
// with the paper's qualitative comparisons (DRAM faster than flash,
// flash reads near DRAM reads, flash writes two orders of magnitude slower
// than reads, disk slower but cheaper than flash, flash lowest power).
var (
	// NECDram is the NEC 3.3-volt self-refresh DRAM the paper cites:
	// "The NEC DRAM already provides 15 megabytes per cubic inch" (paper);
	// ~$30/MB in 1993; ~100ns random access.
	NECDram = Params{
		Name:                  "NEC uPD42S4260 DRAM",
		Class:                 DRAM,
		Year:                  1993,
		CapacityMB:            20,
		DollarsPerMB:          55, // makes a 20MB DRAM package 10x a 20MB KittyHawk drive (paper)
		MBPerCubicInch:        15, // paper
		ReadLatencyNsPerByte:  25, // ~100ns per 4-byte random access
		WriteLatencyNsPerByte: 25,
		SetupNs:               100,
		ActiveMilliwattsPerMB: 150, // active read/write draw
		IdleMilliwattsPerMB:   1,   // low-power self-refresh mode (paper's point)
	}

	// IntelFlash is the Intel Series-2 style memory-mapped flash card:
	// "read access times in the 100-nanosecond per byte range and write
	// times in the 10-microsecond per byte range ... minimum erase sector
	// in the 512-byte range ... guaranteed 100,000 erase cycles ... cost
	// in the 50-dollar per megabyte range ... tens of milliwatts per
	// megabyte" (all paper). The Intel parts actually erased 64KB blocks;
	// we expose both and default the simulator to 64KB blocks.
	IntelFlash = Params{
		Name:                  "Intel Series 2 Flash",
		Class:                 Flash,
		Year:                  1993,
		CapacityMB:            20,
		DollarsPerMB:          50,    // paper
		MBPerCubicInch:        16,    // "within 20% of the density of the KittyHawk" (paper)
		ReadLatencyNsPerByte:  150,   // paper: 100ns/byte range (memory-mapped)
		WriteLatencyNsPerByte: 10000, // paper: 10us/byte range
		SetupNs:               250,
		EraseBlockBytes:       64 * 1024,
		EraseLatencyNs:        1.6e9,  // 1.6 s full-block erase, Series-2 datasheet class
		EnduranceCycles:       100000, // paper
		ActiveMilliwattsPerMB: 30,     // paper: "tens of milliwatts per megabyte"
		IdleMilliwattsPerMB:   0.05,
	}

	// SunDiskFlash is the SunDisk (later SanDisk) SDP drive-replacement
	// flash: "intended to replace hard drives and is optimized for both
	// read and write performance" (paper). Block-interface access with a
	// small 512-byte sector, faster erase, slower reads than the Intel
	// memory-mapped part.
	SunDiskFlash = Params{
		Name:                  "SunDisk SDP Flash",
		Class:                 Flash,
		Year:                  1993,
		CapacityMB:            20,
		DollarsPerMB:          50,
		MBPerCubicInch:        16,
		ReadLatencyNsPerByte:  400,  // block interface, slower than memory-mapped reads
		WriteLatencyNsPerByte: 2500, // optimised writes vs Intel's 10us/byte
		SetupNs:               1000,
		EraseBlockBytes:       512, // paper: "minimum erase sector in the 512-byte range"
		EraseLatencyNs:        4e6, // erase folded into small-sector rewrite
		EnduranceCycles:       100000,
		ActiveMilliwattsPerMB: 30,
		IdleMilliwattsPerMB:   0.05,
	}

	// KittyHawk is the HP C3013A 1.3-inch 20MB drive: "19 megabytes per
	// cubic inch" (paper), ~$3/MB class pricing (the paper says a 20MB
	// DRAM package costs ten times more than a 20MB disk drive).
	KittyHawk = Params{
		Name:             "HP KittyHawk C3013A",
		Class:            Disk,
		Year:             1993,
		CapacityMB:       20,
		DollarsPerMB:     3,
		MBPerCubicInch:   19, // paper
		SetupNs:          500e3,
		AvgSeekNs:        18e6, // 18 ms average seek
		TrackToTrackNs:   5e6,  // 5 ms
		RotationalRPM:    5400,
		TransferMBPerSec: 0.9,
		SpinupNs:         1e9, // 1 s fast spin-up (KittyHawk's headline feature)
		ActiveMilliwatts: 1500,
		IdleMilliwatts:   700,
		SleepMilliwatts:  15,
	}

	// Fujitsu is the M2633 2.5-inch drive, the higher-capacity baseline:
	// flash densities "are only half that of the Fujitsu drive" (paper).
	Fujitsu = Params{
		Name:             "Fujitsu M2633",
		Class:            Disk,
		Year:             1993,
		CapacityMB:       120,
		DollarsPerMB:     2.5,
		MBPerCubicInch:   30, // ~2x the 1993 flash density (paper)
		SetupNs:          500e3,
		AvgSeekNs:        12e6,
		TrackToTrackNs:   3e6,
		RotationalRPM:    4500,
		TransferMBPerSec: 1.5,
		SpinupNs:         2e9,
		ActiveMilliwatts: 2200,
		IdleMilliwatts:   1000,
		SleepMilliwatts:  25,
	}
)

// Catalog lists every part in the 1993 comparison, in the order the paper
// introduces them.
func Catalog() []Params {
	return []Params{NECDram, IntelFlash, SunDiskFlash, KittyHawk, Fujitsu}
}

// ReadLatencyNs reports the modelled latency of a random read of n bytes,
// excluding mechanical positioning (the disk simulator adds that).
func (p *Params) ReadLatencyNs(n int) float64 {
	if p.Class == Disk {
		return p.SetupNs + float64(n)/(p.TransferMBPerSec*1e6)*1e9
	}
	return p.SetupNs + p.ReadLatencyNsPerByte*float64(n)
}

// WriteLatencyNs reports the modelled latency of writing n bytes into
// already-erased storage, excluding mechanical positioning and excluding
// flash erase cost (quoted separately as EraseLatencyNs).
func (p *Params) WriteLatencyNs(n int) float64 {
	if p.Class == Disk {
		return p.SetupNs + float64(n)/(p.TransferMBPerSec*1e6)*1e9
	}
	return p.SetupNs + p.WriteLatencyNsPerByte*float64(n)
}
