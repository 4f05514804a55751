// Package crashtest enumerates power-cut crash points through the flash
// storage stack and checks recovery after every one of them.
//
// The paper's stability story (§4) is that a solid-state computer
// survives abrupt power loss: flash holds the durable state, and the
// translation layer's out-of-band records let the mapping be rebuilt by
// scan. Quiescent power failures (between operations) exercise only the
// easy half of that claim. This package drives the hard half: it runs a
// workload once against a flash/FTL/storage-manager stack to count the
// device's destructive operations (programs, spare programs, erases),
// then replays the workload once per (operation index, fate), cutting
// power before, during, or after that exact operation — torn pages,
// half-written out-of-band records, trembling half-erased blocks — and
// recovers by the honest path (flash.Device.Restore, the engine's
// Mount-by-scan, storman.Mount). The enumeration runs per storage
// backend (Config.Engine selects ftl or pdl); passing it is the bar for
// calling a backend real. After each recovery it checks:
//
//   - structural invariants in both layers (the engine's
//     CheckInvariants, storman.CheckInvariants): mapping bijectivity,
//     block counts, index/scan agreement, and every free block genuinely
//     erased;
//   - data: every block that was flushed and left untouched must read
//     back exactly its flushed image; blocks with in-flight changes must
//     read back either their last flushed image or the image being
//     flushed; deleted blocks may resurrect (trims are in-memory at this
//     layer — the file system's metadata makes deletes durable) but only
//     with a value they actually held;
//   - usability: the recovered stack must accept fresh writes, sync, and
//     read them back, with invariants still holding.
//
// The data checks are exact, not heuristic, because the harness keeps the
// stack in a regime where flash changes only inside explicit barrier
// operations (Sync and Tick): the write buffer is sized so capacity
// evictions never occur — the reference run enforces this — so every
// cut lands inside a barrier and the model knows precisely which blocks
// were dirty when power died.
package crashtest

import (
	"bytes"
	"errors"
	"fmt"

	"ssmobile/internal/device"
	"ssmobile/internal/dram"
	"ssmobile/internal/engine"
	"ssmobile/internal/engine/pdl"
	"ssmobile/internal/flash"
	"ssmobile/internal/ftl"
	"ssmobile/internal/obs"
	"ssmobile/internal/sim"
	"ssmobile/internal/storman"
)

// OpKind names a workload step.
type OpKind int

// Workload steps. Write, Truncate, Delete and DeleteObject touch only
// battery-backed DRAM bookkeeping; Sync and Tick are the barriers where
// dirty blocks migrate to flash (and the cleaner runs), so they are
// where every destructive device operation — and therefore every crash
// point — lives.
const (
	OpWrite OpKind = iota
	OpTruncate
	OpDelete
	OpDeleteObject
	OpSync
	OpTick
)

// Op is one workload step.
type Op struct {
	Kind OpKind
	Key  storman.Key
	// Size is the write length or truncation size.
	Size int
	// Fill is the write's repeated data byte.
	Fill byte
}

// Script is a workload: a fixed sequence of steps.
type Script []Op

// W writes size bytes of fill into (object, block).
func W(object uint64, block int64, size int, fill byte) Op {
	return Op{Kind: OpWrite, Key: storman.Key{Object: object, Block: block}, Size: size, Fill: fill}
}

// T truncates (object, block) to size bytes.
func T(object uint64, block int64, size int) Op {
	return Op{Kind: OpTruncate, Key: storman.Key{Object: object, Block: block}, Size: size}
}

// D deletes the block (object, block).
func D(object uint64, block int64) Op {
	return Op{Kind: OpDelete, Key: storman.Key{Object: object, Block: block}}
}

// DObj deletes every block of the object.
func DObj(object uint64) Op {
	return Op{Kind: OpDeleteObject, Key: storman.Key{Object: object}}
}

// S syncs everything to flash.
func S() Op { return Op{Kind: OpSync} }

// Tk advances the clock past the write-back delay and runs the daemon
// tick (age-based flushes plus idle cleaning).
func Tk() Op { return Op{Kind: OpTick} }

// Config sizes the stack under test. The zero value gets small-geometry
// defaults tuned so a full enumeration stays fast.
type Config struct {
	// Banks and BlocksPerBank shape the flash device.
	Banks, BlocksPerBank int
	// EraseBlockBytes is the flash erase-block size.
	EraseBlockBytes int
	// BlockBytes is the storage-manager block and FTL page size.
	BlockBytes int
	// DRAMPages sizes the write buffer in blocks. It must hold every
	// concurrently dirty block of the script: the exact data model
	// requires that capacity evictions never flush outside a barrier.
	DRAMPages int
	// WriteBackDelay ages dirty blocks for the Tick daemon.
	WriteBackDelay sim.Duration
	// TickAdvance is how far Tk moves the clock; it must be at least
	// WriteBackDelay so a tick flushes every dirty block.
	TickAdvance sim.Duration
	// Policy is the cleaning policy (default cost-benefit). Only
	// meaningful for the ftl engine.
	Policy ftl.Policy
	// Engine selects the storage backend under test: "ftl" (default)
	// or "pdl". Passing the enumerator is the bar for calling a
	// backend real.
	Engine string
	// Fates are the cut variants swept per op index (default all three).
	Fates []flash.Outcome
	// MaxPoints bounds the number of op indexes enumerated; 0 means all.
	// When the workload has more, indexes are sampled at a fixed stride
	// (first and last always included).
	MaxPoints int
}

func (c *Config) applyDefaults() error {
	if c.Banks == 0 {
		c.Banks = 2
	}
	if c.BlocksPerBank == 0 {
		// Small on purpose: 8 erase blocks of 4 pages give 12 logical
		// pages past the reserve, so the default workload's churn drains
		// the free pool and the sweep includes cleaning and erases.
		c.BlocksPerBank = 4
	}
	if c.EraseBlockBytes == 0 {
		c.EraseBlockBytes = 4096
	}
	if c.BlockBytes == 0 {
		c.BlockBytes = 1024
	}
	if c.DRAMPages == 0 {
		c.DRAMPages = 8
	}
	if c.WriteBackDelay == 0 {
		c.WriteBackDelay = 30 * sim.Second
	}
	if c.TickAdvance == 0 {
		c.TickAdvance = 40 * sim.Second
	}
	if c.Policy == ftl.PolicyDirect {
		c.Policy = ftl.PolicyCostBenefit
	}
	if c.Engine == "" {
		c.Engine = "ftl"
	}
	if c.Engine != "ftl" && c.Engine != "pdl" {
		return fmt.Errorf("crashtest: unknown engine %q (want ftl or pdl)", c.Engine)
	}
	if len(c.Fates) == 0 {
		c.Fates = []flash.Outcome{flash.CutBefore, flash.CutDuring, flash.CutAfter}
	}
	if c.TickAdvance < c.WriteBackDelay {
		return fmt.Errorf("crashtest: tick advance %v below write-back delay %v", c.TickAdvance, c.WriteBackDelay)
	}
	return nil
}

// Violation reports one crash point whose recovery broke a guarantee.
type Violation struct {
	// Index and Fate name the destructive op and how it was cut.
	Index int64
	Fate  flash.Outcome
	// Stage is where the violation surfaced: "replay", "mount",
	// "invariants", "data", or "usability".
	Stage string
	Err   error
}

func (v Violation) String() string {
	return fmt.Sprintf("op %d cut %s: %s: %v", v.Index, fateName(v.Fate), v.Stage, v.Err)
}

func fateName(f flash.Outcome) string {
	switch f {
	case flash.CutBefore:
		return "before"
	case flash.CutDuring:
		return "during"
	case flash.CutAfter:
		return "after"
	default:
		return fmt.Sprintf("fate(%d)", int(f))
	}
}

// Result summarises an enumeration.
type Result struct {
	// DestructiveOps is the workload's device op count (the crash-point
	// space); PointsRun is how many (index, fate) recoveries ran.
	DestructiveOps int64
	PointsRun      int
	// Violations lists every broken guarantee; empty means the stack
	// survived power loss at every enumerated boundary.
	Violations []Violation
	// ReErasedBlocks, CorruptRecords and RetiredBlocks total the wreckage
	// the mount scans found and repaired across all recoveries.
	ReErasedBlocks int64
	CorruptRecords int64
	RetiredBlocks  int64
}

// stack is one assembled flash/engine/storage-manager instance.
type stack struct {
	clock *sim.Clock
	dram  *dram.Device
	dev   *flash.Device
	eng   engine.Engine
	m     *storman.Manager
}

func (c Config) ftlConfig(o *obs.Observer) ftl.Config {
	return ftl.Config{
		PageBytes:       c.BlockBytes,
		ReserveBlocks:   3,
		Policy:          c.Policy,
		HotCold:         true,
		BackgroundErase: true,
		PersistMapping:  true,
		Obs:             o,
	}
}

func (c Config) pdlConfig(o *obs.Observer) pdl.Config {
	return pdl.Config{
		PageBytes:       c.BlockBytes,
		ReserveBlocks:   3,
		BackgroundErase: true,
		Obs:             o,
	}
}

// newEngine builds the configured backend fresh; mountEngine rebuilds it
// from a device that already holds data.
func (c Config) newEngine(dev *flash.Device, clock *sim.Clock, o *obs.Observer) (engine.Engine, error) {
	if c.Engine == "pdl" {
		return pdl.New(dev, clock, c.pdlConfig(o))
	}
	return ftl.New(dev, clock, c.ftlConfig(o))
}

func (c Config) mountEngine(dev *flash.Device, clock *sim.Clock, o *obs.Observer) (engine.Engine, error) {
	if c.Engine == "pdl" {
		return pdl.Mount(dev, clock, c.pdlConfig(o))
	}
	return ftl.Mount(dev, clock, c.ftlConfig(o))
}

func (c Config) stormanConfig(o *obs.Observer) storman.Config {
	return storman.Config{
		BlockBytes:     c.BlockBytes,
		DRAMBase:       0,
		DRAMBytes:      int64(c.DRAMPages) * int64(c.BlockBytes),
		WriteBackDelay: c.WriteBackDelay,
		Obs:            o,
	}
}

func buildStack(cfg Config, inj flash.Injector) (*stack, error) {
	o := obs.New(0)
	clock := sim.NewClock()
	meter := sim.NewEnergyMeter()
	dr, err := dram.New(dram.Config{
		CapacityBytes: int64(cfg.DRAMPages) * int64(cfg.BlockBytes),
		Params:        device.NECDram,
		Obs:           o,
	}, clock, meter)
	if err != nil {
		return nil, err
	}
	dev, err := flash.New(flash.Config{
		Banks:          cfg.Banks,
		BlocksPerBank:  cfg.BlocksPerBank,
		BlockBytes:     cfg.EraseBlockBytes,
		Params:         device.IntelFlash,
		SpareUnitBytes: cfg.BlockBytes,
		SpareBytes:     ftl.OOBRecordBytes,
		Injector:       inj,
		Obs:            o,
	}, clock, meter)
	if err != nil {
		return nil, err
	}
	eng, err := cfg.newEngine(dev, clock, o)
	if err != nil {
		return nil, err
	}
	m, err := storman.New(cfg.stormanConfig(o), clock, dr, eng)
	if err != nil {
		return nil, err
	}
	return &stack{clock: clock, dram: dr, dev: dev, eng: eng, m: m}, nil
}

// apply executes one op against the stack.
func (s *stack) apply(cfg Config, op Op) error {
	switch op.Kind {
	case OpWrite:
		return s.m.WriteBlock(op.Key, bytes.Repeat([]byte{op.Fill}, op.Size))
	case OpTruncate:
		return s.m.TruncateBlock(op.Key, op.Size)
	case OpDelete:
		return s.m.DeleteBlock(op.Key)
	case OpDeleteObject:
		return s.m.DeleteObject(op.Key.Object)
	case OpSync:
		return s.m.Sync()
	case OpTick:
		s.clock.Advance(cfg.TickAdvance)
		return s.m.Tick(sim.Forever)
	default:
		return fmt.Errorf("crashtest: unknown op kind %d", op.Kind)
	}
}

// Enumerate measures the script's destructive-op count on a clean run,
// then replays it once per (op index, fate), recovering and checking
// after each cut. The returned Result carries every violation found; a
// non-nil error means the harness itself could not run (bad config, a
// script that breaks the no-evictions regime, or a clean-run failure) —
// not a recovery bug.
func Enumerate(cfg Config, script Script) (*Result, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	total, err := referenceRun(cfg, script)
	if err != nil {
		return nil, err
	}
	res := &Result{DestructiveOps: total}
	for _, idx := range enumerationIndexes(total, cfg.MaxPoints) {
		for _, fate := range cfg.Fates {
			res.PointsRun++
			runPoint(cfg, script, idx, fate, res)
		}
	}
	return res, nil
}

// referenceRun replays the script uncut, validating the regime the data
// model depends on, and returns the destructive-op count.
func referenceRun(cfg Config, script Script) (int64, error) {
	st, err := buildStack(cfg, nil)
	if err != nil {
		return 0, err
	}
	for i, op := range script {
		if err := st.apply(cfg, op); err != nil {
			return 0, fmt.Errorf("crashtest: clean run failed at op %d: %w", i, err)
		}
	}
	if ev := st.m.Stats().Evictions; ev != 0 {
		return 0, fmt.Errorf("crashtest: script causes %d capacity evictions; grow DRAMPages so flushes stay inside barriers", ev)
	}
	return st.dev.DestructiveOps(), nil
}

// enumerationIndexes picks the op indexes to cut at: all of them, or a
// fixed-stride sample capped at maxPoints (first and last included).
func enumerationIndexes(total int64, maxPoints int) []int64 {
	if total == 0 {
		return nil
	}
	if maxPoints <= 0 || total <= int64(maxPoints) {
		out := make([]int64, total)
		for i := range out {
			out[i] = int64(i)
		}
		return out
	}
	stride := (total + int64(maxPoints) - 1) / int64(maxPoints)
	var out []int64
	for i := int64(0); i < total; i += stride {
		out = append(out, i)
	}
	if out[len(out)-1] != total-1 {
		out = append(out, total-1)
	}
	return out
}

// runPoint replays the script with a cut at (idx, fate), recovers, and
// appends any violations to res.
func runPoint(cfg Config, script Script, idx int64, fate flash.Outcome, res *Result) {
	fail := func(stage string, err error) {
		res.Violations = append(res.Violations, Violation{Index: idx, Fate: fate, Stage: stage, Err: err})
	}
	st, err := buildStack(cfg, &flash.CutAt{Index: idx, Fate: fate})
	if err != nil {
		fail("replay", err)
		return
	}
	mod := newModel(cfg.BlockBytes)
	cut := false
	for i, op := range script {
		if err := st.apply(cfg, op); err != nil {
			if errors.Is(err, flash.ErrPowerCut) {
				cut = true
				break
			}
			fail("replay", fmt.Errorf("op %d: %w", i, err))
			return
		}
		mod.completed(op)
	}
	if !cut && !st.dev.Lost() {
		// The cut never fired (index at the workload's edge); nothing to
		// recover.
		return
	}

	// Power is gone: battery-backed DRAM dies with it in this worst-case
	// model, and recovery rebuilds everything from the flash array.
	st.dev.SetInjector(nil)
	st.dram.PowerFail()
	st.dev.Restore()
	st.dram.Restore()
	o := obs.New(0)
	eng, err := cfg.mountEngine(st.dev, st.clock, o)
	if err != nil {
		fail("mount", err)
		return
	}
	ms := eng.MountStats()
	res.ReErasedBlocks += ms.ReErasedBlocks
	res.CorruptRecords += ms.CorruptRecords
	res.RetiredBlocks += ms.RetiredBlocks
	m, err := storman.Mount(cfg.stormanConfig(o), st.clock, st.dram, eng)
	if err != nil {
		fail("mount", err)
		return
	}
	if err := eng.CheckInvariants(); err != nil {
		fail("invariants", err)
		return
	}
	if err := m.CheckInvariants(); err != nil {
		fail("invariants", err)
		return
	}
	for _, err := range mod.verify(m) {
		fail("data", err)
	}
	if err := usabilityPass(cfg, m, eng); err != nil {
		fail("usability", err)
	}
}

// usabilityPass proves the recovered stack still works: overwrite
// surviving blocks, write a fresh one, sync, read everything back, and
// re-check invariants.
func usabilityPass(cfg Config, m *storman.Manager, eng engine.Engine) error {
	keys := m.Keys()
	if len(keys) > 4 {
		keys = keys[:4]
	}
	fresh := storman.Key{Object: 999, Block: 0}
	keys = append(keys, fresh)
	for i, key := range keys {
		data := bytes.Repeat([]byte{byte(0xC0 + i)}, cfg.BlockBytes)
		if err := m.WriteBlock(key, data); err != nil {
			return fmt.Errorf("write %+v: %w", key, err)
		}
	}
	if err := m.Sync(); err != nil {
		return fmt.Errorf("sync: %w", err)
	}
	buf := make([]byte, cfg.BlockBytes)
	for i, key := range keys {
		n, err := m.ReadBlock(key, buf)
		if err != nil {
			return fmt.Errorf("read back %+v: %w", key, err)
		}
		want := bytes.Repeat([]byte{byte(0xC0 + i)}, cfg.BlockBytes)
		if !bytes.Equal(buf[:n], want[:n]) {
			return fmt.Errorf("read back %+v: wrong bytes", key)
		}
	}
	if err := eng.CheckInvariants(); err != nil {
		return fmt.Errorf("post-write invariants: %w", err)
	}
	return m.CheckInvariants()
}
