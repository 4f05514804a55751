// Package core assembles the paper's complete solid-state storage
// organisation — battery-backed DRAM primary storage plus direct-mapped
// flash secondary storage behind a wear-leveling storage layer, with the
// memory-resident file system and single-level-store virtual memory on
// top — and, beside it, the conventional disk organisation it replaces.
// Both present the same System interface so every experiment can run the
// same workload against each and compare latency, energy, and wear.
package core

import (
	"fmt"

	"ssmobile/internal/bufcache"
	"ssmobile/internal/device"
	"ssmobile/internal/disk"
	"ssmobile/internal/diskfs"
	"ssmobile/internal/dram"
	"ssmobile/internal/engine"
	"ssmobile/internal/engine/pdl"
	"ssmobile/internal/flash"
	"ssmobile/internal/fs"
	"ssmobile/internal/ftl"
	"ssmobile/internal/obs"
	"ssmobile/internal/sim"
	"ssmobile/internal/storman"
	"ssmobile/internal/vm"
)

// System is the interface both storage organisations expose to the
// workload replayer and the experiments.
type System interface {
	// Create makes an empty file.
	Create(name string) error
	// WriteAt writes data into the file at off.
	WriteAt(name string, off int64, data []byte) (int, error)
	// ReadAt reads into buf from off.
	ReadAt(name string, off int64, buf []byte) (int, error)
	// Remove deletes the file.
	Remove(name string) error
	// Sync makes everything stable.
	Sync() error
	// Tick pumps background daemons (write-back).
	Tick() error
	// Clock exposes the system's virtual clock.
	Clock() *sim.Clock
	// Meter exposes the system's energy meter.
	Meter() *sim.EnergyMeter
	// SettleIdle charges idle power up to the present on all devices.
	SettleIdle()
	// Name describes the configuration.
	Name() string
}

// SolidStateConfig sizes the paper's organisation.
type SolidStateConfig struct {
	// DRAMBytes is the battery-backed primary storage size.
	DRAMBytes int64
	// FlashBytes is the secondary storage size.
	FlashBytes int64
	// Banks is the flash bank count (default 4).
	Banks int
	// EraseBlockBytes is the flash erase-block size (default 64KB).
	EraseBlockBytes int
	// BlockBytes is the FS/storage-manager block and engine page size
	// (default 4KB).
	BlockBytes int
	// Engine selects the storage backend under the storage manager:
	// "ftl" (default, the flash translation layer) or "pdl" (the
	// page-differential log, which persists only the diff of an
	// overwritten page).
	Engine string
	// BufferBytes is the DRAM write-buffer region (default: a quarter of
	// DRAM).
	BufferBytes int64
	// RBoxBytes is the recovery-box region (default 1MB).
	RBoxBytes int64
	// WriteBackDelay is the dirty age before migration to flash
	// (default 30s).
	WriteBackDelay sim.Duration
	// Policy is the flash cleaning policy (default cost-benefit).
	Policy ftl.Policy
	// HotCold enables hot/cold separation (on with the default policy).
	HotCold bool
	// IdleCleanBlocks, when positive, lets the FTL clean during idle time
	// until that many blocks are free (the paper's "cleaning in the
	// background while the machine is idle"). Zero keeps idle cleaning
	// off, matching the historical experiments; the serving stack turns it
	// on so saturation is a race between offered load and idle cleaning.
	IdleCleanBlocks int
	// SnapshotEvery overrides the recovery-box snapshot cadence.
	SnapshotEvery int
	// FlashParams overrides the flash device catalog entry.
	FlashParams *device.Params
	// Obs receives every layer's metrics and op spans; nil falls back to
	// obs.Default().
	Obs *obs.Observer
}

// codeCardBytes sizes the separate read-mostly flash card that holds
// execute-in-place program images. The paper's §3.3 prescribes
// segregating read-mostly data from the frequently-written banks; bundled
// software shipped on its own card is the 1993 form of that (HP
// OmniBook). The card is outside the cleaner's reach, so XIP mappings
// stay stable.
const codeCardBytes = 4 << 20

func (c *SolidStateConfig) applyDefaults() {
	if c.Banks == 0 {
		c.Banks = 4
	}
	if c.EraseBlockBytes == 0 {
		c.EraseBlockBytes = 64 * 1024
	}
	if c.BlockBytes == 0 {
		c.BlockBytes = 4096
	}
	if c.BufferBytes == 0 {
		c.BufferBytes = c.DRAMBytes / 4
	}
	if c.RBoxBytes == 0 {
		c.RBoxBytes = 1 << 20
	}
	if c.WriteBackDelay == 0 {
		c.WriteBackDelay = 30 * sim.Second
	}
	if c.Policy == ftl.PolicyDirect {
		c.Policy = ftl.PolicyCostBenefit
		c.HotCold = true
	}
	if c.Engine == "" {
		c.Engine = "ftl"
	}
}

// SolidStateSystem is the paper's organisation, fully assembled.
type SolidStateSystem struct {
	cfg   SolidStateConfig
	clock *sim.Clock
	meter *sim.EnergyMeter

	DRAM *dram.Device
	// Flash is the storage card: cleaner-managed, behind the FTL.
	Flash *flash.Device
	// CodeCard is the read-mostly card holding execute-in-place images;
	// the VM's flash mappings point here.
	CodeCard *flash.Device
	// Engine is the storage backend the stack was built with.
	Engine engine.Engine
	// FTL is the translation layer when Engine is "ftl", nil otherwise;
	// the FTL-specific experiments read it directly.
	FTL     *ftl.FTL
	Storage *storman.Manager
	FS      *fs.FS
	VM      *vm.VM
}

// NewSolidState builds the full stack on fresh devices. The DRAM layout
// is: [0, RBoxBytes) recovery box; [RBoxBytes, RBoxBytes+BufferBytes)
// storage manager write buffer; the remainder is the VM frame pool.
func NewSolidState(cfg SolidStateConfig) (*SolidStateSystem, error) {
	cfg.applyDefaults()
	clock := sim.NewClock()
	meter := sim.NewEnergyMeter()
	o := obs.Or(cfg.Obs)
	// Pin the resolved observer into the retained config, so everything
	// built later from s.cfg (the remount-after-power-failure path) writes
	// to the same observer this construction does — never to whatever the
	// process default happens to be at that point.
	cfg.Obs = o
	o.GaugeFunc("dropped_negative_charges", obs.Labels{"layer": "core", "system": "solid-state"},
		func() float64 { return float64(meter.DroppedNegativeCharges()) })

	flashParams := device.IntelFlash
	if cfg.FlashParams != nil {
		flashParams = *cfg.FlashParams
	}
	dr, err := dram.New(dram.Config{CapacityBytes: cfg.DRAMBytes, Params: device.NECDram, Obs: o}, clock, meter)
	if err != nil {
		return nil, err
	}
	blocksPerBank := int(cfg.FlashBytes / int64(cfg.Banks) / int64(cfg.EraseBlockBytes))
	if blocksPerBank <= 0 {
		return nil, fmt.Errorf("core: flash of %d bytes too small for %d banks of %d-byte blocks",
			cfg.FlashBytes, cfg.Banks, cfg.EraseBlockBytes)
	}
	fd, err := flash.New(flash.Config{
		Banks:         cfg.Banks,
		BlocksPerBank: blocksPerBank,
		BlockBytes:    cfg.EraseBlockBytes,
		Params:        flashParams,
		// Spare area for the translation layer's per-page records, so the
		// mapping survives power loss and remounts by device scan.
		SpareUnitBytes: cfg.BlockBytes,
		SpareBytes:     ftl.OOBRecordBytes,
		Obs:            o,
	}, clock, meter)
	if err != nil {
		return nil, err
	}
	code, err := flash.New(flash.Config{
		Banks:         1,
		BlocksPerBank: max(1, codeCardBytes/cfg.EraseBlockBytes),
		BlockBytes:    cfg.EraseBlockBytes,
		Params:        flashParams,
		MeterCategory: "flash-code",
		Obs:           o,
	}, clock, meter)
	if err != nil {
		return nil, err
	}
	if cfg.RBoxBytes+cfg.BufferBytes >= cfg.DRAMBytes {
		return nil, fmt.Errorf("core: rbox %d + buffer %d exceed DRAM %d",
			cfg.RBoxBytes, cfg.BufferBytes, cfg.DRAMBytes)
	}
	s := &SolidStateSystem{cfg: cfg, clock: clock, meter: meter, DRAM: dr, Flash: fd, CodeCard: code}
	if err := s.assemble(false); err != nil {
		return nil, err
	}
	return s, nil
}

// assemble builds the software layers — storage engine, storage manager,
// file system, VM — over s's devices. It is the one place the layer
// configs and the engine switch are written: a fresh stack initialises
// each layer, a remount recovers each from what the flash card holds
// (the engine by scanning out-of-band records, the storage manager's
// placement table from the page tags, the file-system namespace from the
// last checkpoint).
func (s *SolidStateSystem) assemble(remount bool) error {
	cfg := s.cfg
	newFTL, newPDL, newStorman := ftl.New, pdl.New, storman.New
	if remount {
		newFTL, newPDL, newStorman = ftl.Mount, pdl.Mount, storman.Mount
	}
	var err error
	switch cfg.Engine {
	case "ftl":
		s.FTL, err = newFTL(s.Flash, s.clock, ftl.Config{
			PageBytes:          cfg.BlockBytes,
			ReserveBlocks:      3,
			IdleCleanThreshold: cfg.IdleCleanBlocks,
			Policy:             cfg.Policy,
			HotCold:            cfg.HotCold,
			BackgroundErase:    true,
			PersistMapping:     true,
			Obs:                cfg.Obs,
		})
		if err != nil {
			return err
		}
		s.Engine = s.FTL
	case "pdl":
		s.Engine, err = newPDL(s.Flash, s.clock, pdl.Config{
			PageBytes:          cfg.BlockBytes,
			ReserveBlocks:      3,
			IdleCleanThreshold: cfg.IdleCleanBlocks,
			BackgroundErase:    true,
			Obs:                cfg.Obs,
		})
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("core: unknown storage engine %q (want ftl or pdl)", cfg.Engine)
	}
	s.Storage, err = newStorman(storman.Config{
		BlockBytes:     cfg.BlockBytes,
		DRAMBase:       cfg.RBoxBytes,
		DRAMBytes:      cfg.BufferBytes,
		WriteBackDelay: cfg.WriteBackDelay,
		Obs:            cfg.Obs,
	}, s.clock, s.DRAM, s.Engine)
	if err != nil {
		return err
	}
	fsCfg := fs.Config{
		RBoxBase:      0,
		RBoxBytes:     cfg.RBoxBytes,
		SnapshotEvery: cfg.SnapshotEvery,
		Obs:           cfg.Obs,
	}
	if remount {
		s.FS, _, err = fs.RecoverAfterPowerFailure(fsCfg, s.clock, s.Storage, s.DRAM)
	} else {
		s.FS, err = fs.Mkfs(fsCfg, s.clock, s.Storage, s.DRAM)
	}
	if err != nil {
		return err
	}
	frameBase := cfg.RBoxBytes + cfg.BufferBytes
	s.VM, err = vm.New(vm.Config{
		PageBytes: cfg.BlockBytes,
		DRAMBase:  frameBase,
		DRAMBytes: cfg.DRAMBytes - frameBase,
		Obs:       cfg.Obs,
	}, s.clock, s.DRAM, s.CodeCard)
	return err
}

// InstallImage programs a read-mostly image (a bundled application) into
// the code card at the given offset, the way a software installer or the
// factory would. The offset must fall on an erase-block boundary.
func (s *SolidStateSystem) InstallImage(off int64, image []byte) error {
	bb := s.CodeCard.BlockBytes()
	if off%int64(bb) != 0 {
		return fmt.Errorf("core: image offset %d not block-aligned", off)
	}
	for len(image) > 0 {
		block := s.CodeCard.BlockOf(off)
		if s.CodeCard.EraseCount(block) > 0 || needsErase(s.CodeCard, off, image) {
			if _, err := s.CodeCard.Erase(block); err != nil {
				return err
			}
		}
		n := bb - int(off)%bb
		if n > len(image) {
			n = len(image)
		}
		if _, err := s.CodeCard.Program(off, image[:n]); err != nil {
			return err
		}
		off += int64(n)
		image = image[n:]
	}
	return nil
}

// needsErase reports whether programming image at off would need bits set
// back to 1 (i.e. the region is not freshly erased).
func needsErase(d *flash.Device, off int64, image []byte) bool {
	bb := d.BlockBytes()
	n := bb - int(off)%bb
	if n > len(image) {
		n = len(image)
	}
	for i := 0; i < n; i++ {
		if ^d.Peek(off+int64(i))&image[i] != 0 {
			return true
		}
	}
	return false
}

// RemountAfterPowerFailure performs the full honest power-failure
// recovery: with the DRAM device failed (the caller triggers
// DRAM.PowerFail), it restores the DRAM array empty, rebuilds the
// translation layer by scanning the flash device's out-of-band records,
// rebuilds the storage manager's placement table from the page tags, and
// reloads the file-system namespace from the last flash checkpoint. It
// returns a new system sharing the same physical devices, clock and
// meter.
func (s *SolidStateSystem) RemountAfterPowerFailure() (*SolidStateSystem, error) {
	if !s.DRAM.Lost() {
		return nil, fmt.Errorf("core: remount without a power failure; call DRAM.PowerFail first")
	}
	// Preserve the last moments before the cut while the tracer ring
	// still holds them: the remount rebuilds the stack and subsequent
	// traffic would overwrite the evidence.
	if fr := obs.Or(s.cfg.Obs).FlightRecorder(); fr != nil {
		fr.Dump("power-cut-remount")
	}
	// Everything destructive from here to the rebuilt stack — re-erasing
	// torn blocks during the OOB scan, recovery checkpoints — is charged
	// to the mount-recovery cause (ftl.Mount pushes the same cause for its
	// own scan, which nests harmlessly inside this scope).
	defer obs.Or(s.cfg.Obs).PushCause(obs.CauseMountRecovery)()
	s.DRAM.Restore()
	if s.Flash.Lost() {
		// The cut may have hit the flash device mid-operation (fault
		// injection); recovery disarms the injector and powers the array
		// back up before scanning it.
		s.Flash.SetInjector(nil)
		s.Flash.Restore()
	}
	r := &SolidStateSystem{
		cfg: s.cfg, clock: s.clock, meter: s.meter,
		DRAM: s.DRAM, Flash: s.Flash, CodeCard: s.CodeCard,
	}
	if err := r.assemble(true); err != nil {
		return nil, err
	}
	return r, nil
}

func ssPath(name string) string { return "/" + name }

// Create implements System.
func (s *SolidStateSystem) Create(name string) error { return s.FS.Create(ssPath(name)) }

// WriteAt implements System.
func (s *SolidStateSystem) WriteAt(name string, off int64, data []byte) (int, error) {
	return s.FS.WriteAt(ssPath(name), off, data)
}

// ReadAt implements System.
func (s *SolidStateSystem) ReadAt(name string, off int64, buf []byte) (int, error) {
	return s.FS.ReadAt(ssPath(name), off, buf)
}

// Remove implements System.
func (s *SolidStateSystem) Remove(name string) error { return s.FS.Remove(ssPath(name)) }

// Sync implements System.
func (s *SolidStateSystem) Sync() error { return s.FS.Sync() }

// Tick implements System.
func (s *SolidStateSystem) Tick() error { return s.Storage.Tick(sim.Forever) }

// Clock implements System.
func (s *SolidStateSystem) Clock() *sim.Clock { return s.clock }

// Meter implements System.
func (s *SolidStateSystem) Meter() *sim.EnergyMeter { return s.meter }

// SettleIdle implements System.
func (s *SolidStateSystem) SettleIdle() {
	s.DRAM.ChargeIdle()
	s.Flash.ChargeIdle()
	s.CodeCard.ChargeIdle()
}

// Name implements System.
func (s *SolidStateSystem) Name() string {
	return fmt.Sprintf("solid-state (%dMB DRAM + %dMB flash)",
		s.cfg.DRAMBytes>>20, s.cfg.FlashBytes>>20)
}

// DiskConfig sizes the conventional organisation.
type DiskConfig struct {
	// DRAMBytes is main memory; all of it beyond the FS's in-core state
	// serves as the buffer cache.
	DRAMBytes int64
	// DiskBytes is the drive size.
	DiskBytes int64
	// BlockBytes is the FS block size (default 4KB).
	BlockBytes int
	// CacheBytes is the buffer-cache size (default: a quarter of DRAM,
	// the classic rule of thumb).
	CacheBytes int64
	// WriteBackDelay is the delayed-write age (default 30s).
	WriteBackDelay sim.Duration
	// SpindownTimeout powers the drive down when idle (default 10s;
	// negative disables).
	SpindownTimeout sim.Duration
	// InodeBlocks sizes the on-disk inode table (default 512 blocks =
	// 16k inodes at 4KB blocks).
	InodeBlocks int64
	// DiskParams overrides the drive model (default KittyHawk).
	DiskParams *device.Params
	// Obs receives every layer's metrics and op spans; nil falls back to
	// obs.Default().
	Obs *obs.Observer
}

func (c *DiskConfig) applyDefaults() {
	if c.BlockBytes == 0 {
		c.BlockBytes = 4096
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = c.DRAMBytes / 4
	}
	if c.WriteBackDelay == 0 {
		c.WriteBackDelay = 30 * sim.Second
	}
	if c.SpindownTimeout == 0 {
		c.SpindownTimeout = 10 * sim.Second
	}
	if c.SpindownTimeout < 0 {
		c.SpindownTimeout = 0
	}
	if c.InodeBlocks == 0 {
		c.InodeBlocks = 512
	}
}

// DiskSystem is the conventional organisation: disk + buffer cache +
// FFS-like file system.
type DiskSystem struct {
	cfg   DiskConfig
	clock *sim.Clock
	meter *sim.EnergyMeter

	DRAM  *dram.Device
	Disk  *disk.Device
	Cache *bufcache.Cache
	FS    *diskfs.FS
}

// NewDisk builds the conventional stack.
func NewDisk(cfg DiskConfig) (*DiskSystem, error) {
	cfg.applyDefaults()
	clock := sim.NewClock()
	meter := sim.NewEnergyMeter()
	o := obs.Or(cfg.Obs)
	cfg.Obs = o
	o.GaugeFunc("dropped_negative_charges", obs.Labels{"layer": "core", "system": "disk"},
		func() float64 { return float64(meter.DroppedNegativeCharges()) })
	dr, err := dram.New(dram.Config{CapacityBytes: cfg.DRAMBytes, Params: device.NECDram, Obs: o}, clock, meter)
	if err != nil {
		return nil, err
	}
	diskParams := device.KittyHawk
	if cfg.DiskParams != nil {
		diskParams = *cfg.DiskParams
	}
	dk, err := disk.New(disk.Config{
		CapacityBytes:   cfg.DiskBytes,
		Params:          diskParams,
		SpindownTimeout: cfg.SpindownTimeout,
		Obs:             o,
	}, clock, meter)
	if err != nil {
		return nil, err
	}
	cache, err := bufcache.New(bufcache.Config{
		BlockBytes:     cfg.BlockBytes,
		DRAMBase:       0,
		DRAMBytes:      cfg.CacheBytes,
		WriteBackDelay: cfg.WriteBackDelay,
		Obs:            o,
	}, clock, dr, dk)
	if err != nil {
		return nil, err
	}
	f, err := diskfs.New(diskfs.Config{InodeBlocks: cfg.InodeBlocks}, cache)
	if err != nil {
		return nil, err
	}
	return &DiskSystem{cfg: cfg, clock: clock, meter: meter, DRAM: dr, Disk: dk, Cache: cache, FS: f}, nil
}

// Create implements System.
func (d *DiskSystem) Create(name string) error { return d.FS.Create(name) }

// WriteAt implements System.
func (d *DiskSystem) WriteAt(name string, off int64, data []byte) (int, error) {
	return d.FS.WriteAt(name, off, data)
}

// ReadAt implements System.
func (d *DiskSystem) ReadAt(name string, off int64, buf []byte) (int, error) {
	return d.FS.ReadAt(name, off, buf)
}

// Remove implements System.
func (d *DiskSystem) Remove(name string) error { return d.FS.Remove(name) }

// Sync implements System.
func (d *DiskSystem) Sync() error { return d.FS.Sync() }

// Tick implements System.
func (d *DiskSystem) Tick() error { return d.FS.Tick() }

// Clock implements System.
func (d *DiskSystem) Clock() *sim.Clock { return d.clock }

// Meter implements System.
func (d *DiskSystem) Meter() *sim.EnergyMeter { return d.meter }

// SettleIdle implements System.
func (d *DiskSystem) SettleIdle() {
	d.DRAM.ChargeIdle()
	d.Disk.ChargeIdle()
}

// Name implements System.
func (d *DiskSystem) Name() string {
	return fmt.Sprintf("disk (%dMB DRAM + %dMB %s)",
		d.cfg.DRAMBytes>>20, d.cfg.DiskBytes>>20, d.Disk.Config().Params.Name)
}
