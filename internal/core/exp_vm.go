package core

import (
	"fmt"

	"ssmobile/internal/device"
	"ssmobile/internal/disk"
	"ssmobile/internal/dram"
	"ssmobile/internal/flash"
	"ssmobile/internal/obs"
	"ssmobile/internal/sim"
	"ssmobile/internal/vm"
)

// E4ReadInPlace regenerates the paper's §3.1 claim that a memory-resident
// file system reading flash in place beats a conventional disk file
// system that must fetch into a buffer cache — and that mapping files
// costs no copies at all. It reads a working set of files through four
// paths and reports the total latency and the DRAM consumed by copies.
func E4ReadInPlace(env *Env) (*Table, error) {
	const (
		fileCount = 24
		fileSize  = 64 * 1024
	)
	data := make([]byte, fileSize)
	for i := range data {
		data[i] = byte(i)
	}

	// Solid-state paths.
	solid, err := NewSolidState(SolidStateConfig{DRAMBytes: 8 << 20, FlashBytes: 32 << 20, Obs: env.Obs()})
	if err != nil {
		return nil, err
	}
	for i := 0; i < fileCount; i++ {
		name := fmt.Sprintf("f%d", i)
		if err := solid.Create(name); err != nil {
			return nil, err
		}
		if _, err := solid.WriteAt(name, 0, data); err != nil {
			return nil, err
		}
	}
	if err := solid.Sync(); err != nil {
		return nil, err
	}

	buf := make([]byte, fileSize)
	start := solid.Clock().Now()
	for i := 0; i < fileCount; i++ {
		if _, err := solid.ReadAt(fmt.Sprintf("f%d", i), 0, buf); err != nil {
			return nil, err
		}
	}
	solidRead := solid.Clock().Now().Sub(start)

	// Memory-mapped path: map every file and touch every page.
	space := solid.VM.NewSpace()
	start = solid.Clock().Now()
	addr := uint64(1 << 30)
	for i := 0; i < fileCount; i++ {
		n, err := solid.FS.MapFile(solid.VM, space, addr, "/"+fmt.Sprintf("f%d", i), vm.PermRead)
		if err != nil {
			return nil, err
		}
		if err := solid.VM.Read(space, addr, buf); err != nil {
			return nil, err
		}
		addr += uint64(n)
	}
	solidMap := solid.Clock().Now().Sub(start)
	framesUsed := solid.VM.Stats().FramesInUse

	// Disk paths.
	dsys, err := NewDisk(DiskConfig{DRAMBytes: 8 << 20, DiskBytes: 32 << 20, Obs: env.Obs()})
	if err != nil {
		return nil, err
	}
	for i := 0; i < fileCount; i++ {
		name := fmt.Sprintf("f%d", i)
		if err := dsys.Create(name); err != nil {
			return nil, err
		}
		if _, err := dsys.WriteAt(name, 0, data); err != nil {
			return nil, err
		}
	}
	if err := dsys.Sync(); err != nil {
		return nil, err
	}
	// Cold: push the working set out of the cache with unrelated traffic.
	if err := dsys.Create("filler"); err != nil {
		return nil, err
	}
	if _, err := dsys.WriteAt("filler", 0, make([]byte, 4<<20)); err != nil {
		return nil, err
	}
	if err := dsys.Sync(); err != nil {
		return nil, err
	}
	start = dsys.Clock().Now()
	for i := 0; i < fileCount; i++ {
		if _, err := dsys.ReadAt(fmt.Sprintf("f%d", i), 0, buf); err != nil {
			return nil, err
		}
	}
	diskCold := dsys.Clock().Now().Sub(start)

	// Warm: the same reads again, now cached (the conventional best case,
	// bought with a DRAM copy of every block).
	start = dsys.Clock().Now()
	for i := 0; i < fileCount; i++ {
		if _, err := dsys.ReadAt(fmt.Sprintf("f%d", i), 0, buf); err != nil {
			return nil, err
		}
	}
	diskWarm := dsys.Clock().Now().Sub(start)

	total := int64(fileCount * fileSize)
	mbps := func(d sim.Duration) string {
		return fmt.Sprintf("%.2f MB/s", float64(total)/(1<<20)/d.Seconds())
	}
	t := &Table{
		ID:      "E4",
		Title:   fmt.Sprintf("reading a %dx%s working set: in-place flash vs disk+cache", fileCount, fmtBytes(fileSize)),
		Headers: []string{"path", "total", "throughput", "DRAM copy bytes"},
	}
	t.AddRow("solid-state read (flash in place)", fmtDur(solidRead), mbps(solidRead), "0")
	t.AddRow("solid-state mmap + touch", fmtDur(solidMap), mbps(solidMap),
		fmt.Sprintf("%d (frames in use: %d)", 0, framesUsed))
	t.AddRow("disk, cold buffer cache", fmtDur(diskCold), mbps(diskCold), fmtBytes(total))
	t.AddRow("disk, warm buffer cache", fmtDur(diskWarm), mbps(diskWarm), fmtBytes(total)+" (resident copy)")
	t.Notes = append(t.Notes,
		"paper: files in flash are read/mapped with no copy in primary storage;",
		"the disk system must copy every block into the cache, and pays seeks when cold")
	return t, nil
}

// E5XIP regenerates the §3.2 execute-in-place claim: programs run from
// flash without first loading their code segment into DRAM, saving both
// the copy time and the duplicate DRAM. Launch latency = map (or load)
// plus one full pass of instruction fetch over the code segment.
func E5XIP(env *Env) (*Table, error) {
	t := &Table{
		ID:      "E5",
		Title:   "program launch: execute-in-place from flash vs load-then-run",
		Headers: []string{"code size", "XIP (flash)", "load flash->DRAM", "load disk->DRAM", "XIP DRAM saved"},
	}
	sizes := []int{64 << 10, 256 << 10, 1 << 20, 4 << 20}
	rows := make([][]string, len(sizes))
	err := env.ForEach(len(sizes), func(i int, je *Env) error {
		size := sizes[i]
		xip, err := launchXIP(je.Obs(), size)
		if err != nil {
			return err
		}
		loadFlash, err := launchLoad(je.Obs(), size, false)
		if err != nil {
			return err
		}
		loadDisk, err := launchLoad(je.Obs(), size, true)
		if err != nil {
			return err
		}
		rows[i] = []string{fmtBytes(int64(size)), fmtDur(xip), fmtDur(loadFlash), fmtDur(loadDisk), fmtBytes(int64(size))}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.addRows(rows)
	t.Notes = append(t.Notes,
		"XIP pays flash fetch during execution but skips the load copy entirely (HP OmniBook style);",
		"loading from disk also pays spin-up and seeks")
	return t, nil
}

// xipRig builds a DRAM + code-card flash pair with a program staged in
// flash, as an installer would leave it.
func xipRig(o *obs.Observer, codeSize int) (*sim.Clock, *dram.Device, *flash.Device, *vm.VM, error) {
	clock := sim.NewClock()
	meter := sim.NewEnergyMeter()
	dr, err := dram.New(dram.Config{CapacityBytes: 8 << 20, Params: device.NECDram, Obs: o}, clock, meter)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	fd, err := flash.New(flash.Config{Banks: 2, BlocksPerBank: 64, BlockBytes: 64 << 10, Params: device.IntelFlash, Obs: o}, clock, meter)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	// Stage the program; installation cost is not part of launch latency,
	// so rewind to a fresh clock afterwards is unnecessary — we just
	// measure from after staging.
	code := make([]byte, codeSize)
	for i := range code {
		code[i] = byte(i * 13)
	}
	addr := int64(0)
	for len(code) > 0 {
		n := fd.BlockBytes()
		if n > len(code) {
			n = len(code)
		}
		if _, err := fd.Program(addr, code[:n]); err != nil {
			return nil, nil, nil, nil, err
		}
		addr += int64(n)
		code = code[n:]
	}
	v, err := vm.New(vm.Config{DRAMBase: 0, DRAMBytes: 6 << 20, Obs: o}, clock, dr, fd)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return clock, dr, fd, v, nil
}

func launchXIP(o *obs.Observer, codeSize int) (sim.Duration, error) {
	clock, _, _, v, err := xipRig(o, codeSize)
	if err != nil {
		return 0, err
	}
	s := v.NewSpace()
	start := clock.Now()
	if err := v.MapFlash(s, 1<<30, 0, codeSize, vm.PermRead|vm.PermExec); err != nil {
		return 0, err
	}
	if err := v.Exec(s, 1<<30, codeSize); err != nil {
		return 0, err
	}
	return clock.Now().Sub(start), nil
}

func launchLoad(o *obs.Observer, codeSize int, fromDisk bool) (sim.Duration, error) {
	clock, dr, fd, v, err := xipRig(o, codeSize)
	if err != nil {
		return 0, err
	}
	var dk *disk.Device
	if fromDisk {
		meter := sim.NewEnergyMeter()
		dk, err = disk.New(disk.Config{
			CapacityBytes: 20 << 20, Params: device.KittyHawk,
			SpindownTimeout: 5 * sim.Second,
			Obs:             o,
		}, clock, meter)
		if err != nil {
			return 0, err
		}
		if _, err := dk.Write(0, make([]byte, codeSize)); err != nil {
			return 0, err
		}
		// The drive has been idle since boot: it pays spin-up at launch.
		clock.Advance(time30s)
	}
	s := v.NewSpace()
	if err := v.MapAnonymous(s, 1<<30, codeSize, vm.PermRead|vm.PermWrite|vm.PermExec); err != nil {
		return 0, err
	}
	start := clock.Now()
	buf := make([]byte, codeSize)
	if fromDisk {
		if _, err := dk.Read(0, buf); err != nil {
			return 0, err
		}
	} else {
		if _, err := fd.Read(0, buf); err != nil {
			return 0, err
		}
	}
	if err := v.Write(s, 1<<30, buf); err != nil {
		return 0, err
	}
	if err := v.Exec(s, 1<<30, codeSize); err != nil {
		return 0, err
	}
	_ = dr
	return clock.Now().Sub(start), nil
}

const time30s = 30 * sim.Second
