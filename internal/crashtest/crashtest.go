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
// backend (Config.Engine names one of backends.Names); passing it is the
// bar for calling a backend real. After each recovery it checks:
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
	"ssmobile/internal/engine/backends"
	"ssmobile/internal/engine/blocks"
	"ssmobile/internal/flash"
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
	// Off is the byte offset in the block a write starts at.
	Off int
	// Size is the write length or truncation size.
	Size int
	// Fill is the write's repeated data byte.
	Fill byte
}

// Script is a workload: a fixed sequence of steps.
type Script []Op

// W writes size bytes of fill at the start of (object, block).
func W(object uint64, block int64, size int, fill byte) Op {
	return WA(object, block, 0, size, fill)
}

// WA writes size bytes of fill into (object, block) at byte off.
func WA(object uint64, block int64, off, size int, fill byte) Op {
	return Op{Kind: OpWrite, Key: storman.Key{Object: object, Block: block}, Off: off, Size: size, Fill: fill}
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

// The stack under test. The card is small on purpose: 8 erase blocks of
// 4 pages give 12 logical pages past the reserve, so the default
// workload's churn drains the free pool and the sweep includes cleaning
// and erases.
const (
	banks           = 2
	blocksPerBank   = 4
	eraseBlockBytes = 4096
	// blockBytes is the storage-manager block and engine page size.
	blockBytes = 1024
	// dramPages sizes the write buffer in blocks. A script must not
	// dirty more at once: the exact data model requires that capacity
	// evictions never flush outside a barrier.
	dramPages = 8
	// writeBackDelay ages dirty blocks for the Tick daemon; tickAdvance
	// is how far Tk moves the clock, past the delay so that a tick
	// flushes every dirty block.
	writeBackDelay = 30 * sim.Second
	tickAdvance    = writeBackDelay + 10*sim.Second
)

// allFates are the cut variants swept per op index by default.
var allFates = []flash.Outcome{flash.CutBefore, flash.CutDuring, flash.CutAfter}

// Config chooses what an enumeration runs; the card under it is fixed.
type Config struct {
	// Engine selects the storage backend under test, one of
	// backends.Names ("" is the first). Passing the enumerator is the
	// bar for calling a backend real.
	Engine string
	// Fates are the cut variants swept per op index (default all three).
	Fates []flash.Outcome
	// MaxPoints bounds the number of op indexes enumerated; 0 means all.
	// When the workload has more, indexes are sampled at a fixed stride
	// (first and last always included).
	MaxPoints int
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

func stormanConfig(o *obs.Observer) storman.Config {
	return storman.Config{
		BlockBytes:     blockBytes,
		DRAMBase:       0,
		DRAMBytes:      dramPages * blockBytes,
		WriteBackDelay: writeBackDelay,
		Obs:            o,
	}
}

// buildStack assembles a fresh card with the named engine over it.
func buildStack(engineName string, inj flash.Injector) (*stack, error) {
	o := obs.New(0)
	clock := sim.NewClock()
	meter := sim.NewEnergyMeter()
	dr, err := dram.New(dram.Config{
		CapacityBytes: dramPages * blockBytes,
		Params:        device.NECDram,
		Obs:           o,
	}, clock, meter)
	if err != nil {
		return nil, err
	}
	dev, err := flash.New(flash.Config{
		Banks:          banks,
		BlocksPerBank:  blocksPerBank,
		BlockBytes:     eraseBlockBytes,
		Params:         device.IntelFlash,
		SpareUnitBytes: blockBytes,
		SpareBytes:     blocks.PageRecordBytes,
		Injector:       inj,
		Obs:            o,
	}, clock, meter)
	if err != nil {
		return nil, err
	}
	eng, err := backends.Open(engineName, false, dev, clock, backends.Config{PageBytes: blockBytes, Obs: o})
	if err != nil {
		return nil, err
	}
	m, err := storman.New(stormanConfig(o), clock, dr, eng)
	if err != nil {
		return nil, err
	}
	return &stack{clock: clock, dram: dr, dev: dev, eng: eng, m: m}, nil
}

// apply executes one op against the stack.
func (s *stack) apply(op Op) error {
	switch op.Kind {
	case OpWrite:
		return s.m.WriteBlockAt(op.Key, op.Off, bytes.Repeat([]byte{op.Fill}, op.Size))
	case OpTruncate:
		return s.m.TruncateBlock(op.Key, op.Size)
	case OpDelete:
		return s.m.DeleteBlock(op.Key)
	case OpDeleteObject:
		return s.m.DeleteObject(op.Key.Object)
	case OpSync:
		return s.m.Sync()
	case OpTick:
		s.clock.Advance(tickAdvance)
		return s.m.Tick(sim.Forever)
	default:
		return fmt.Errorf("crashtest: unknown op kind %d", op.Kind)
	}
}

// Enumerate measures the script's destructive-op count on a clean run,
// then replays it once per (op index, fate), recovering and checking
// after each cut. The returned Result carries every violation found; a
// non-nil error means the harness itself could not run (an unknown
// engine, a script that breaks the no-evictions regime, or a clean-run
// failure) — not a recovery bug.
func Enumerate(cfg Config, script Script) (*Result, error) {
	fates := cfg.Fates
	if len(fates) == 0 {
		fates = allFates
	}
	total, err := referenceRun(cfg.Engine, script)
	if err != nil {
		return nil, err
	}
	res := &Result{DestructiveOps: total}
	for _, idx := range enumerationIndexes(total, cfg.MaxPoints) {
		for _, fate := range fates {
			res.PointsRun++
			runPoint(cfg.Engine, script, idx, fate, res)
		}
	}
	return res, nil
}

// referenceRun replays the script uncut, validating the regime the data
// model depends on, and returns the destructive-op count.
func referenceRun(engineName string, script Script) (int64, error) {
	st, err := buildStack(engineName, nil)
	if err != nil {
		return 0, err
	}
	for i, op := range script {
		if err := st.apply(op); err != nil {
			return 0, fmt.Errorf("crashtest: clean run failed at op %d: %w", i, err)
		}
	}
	if ev := st.m.Stats().Evictions; ev != 0 {
		return 0, fmt.Errorf("crashtest: script causes %d capacity evictions; dirty at most %d blocks at once so flushes stay inside barriers", ev, dramPages)
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
func runPoint(engineName string, script Script, idx int64, fate flash.Outcome, res *Result) {
	fail := func(stage string, err error) {
		res.Violations = append(res.Violations, Violation{Index: idx, Fate: fate, Stage: stage, Err: err})
	}
	st, err := buildStack(engineName, &flash.CutAt{Index: idx, Fate: fate})
	if err != nil {
		fail("replay", err)
		return
	}
	mod := newModel(blockBytes)
	cut := false
	for i, op := range script {
		if err := st.apply(op); err != nil {
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
	eng, err := backends.Open(engineName, true, st.dev, st.clock, backends.Config{PageBytes: blockBytes, Obs: o})
	if err != nil {
		fail("mount", err)
		return
	}
	ms := eng.MountStats()
	res.ReErasedBlocks += ms.ReErasedBlocks
	res.CorruptRecords += ms.CorruptRecords
	res.RetiredBlocks += ms.RetiredBlocks
	m, err := storman.Mount(stormanConfig(o), st.clock, st.dram, eng)
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
	if err := usabilityPass(m, eng); err != nil {
		fail("usability", err)
	}
}

// usabilityPass proves the recovered stack still works: overwrite
// surviving blocks, write a fresh one, sync, read everything back, and
// re-check invariants.
func usabilityPass(m *storman.Manager, eng engine.Engine) error {
	keys := m.Keys()
	if len(keys) > 4 {
		keys = keys[:4]
	}
	fresh := storman.Key{Object: 999, Block: 0}
	keys = append(keys, fresh)
	for i, key := range keys {
		data := bytes.Repeat([]byte{byte(0xC0 + i)}, blockBytes)
		if err := m.WriteBlockAt(key, 0, data); err != nil {
			return fmt.Errorf("write %+v: %w", key, err)
		}
	}
	if err := m.Sync(); err != nil {
		return fmt.Errorf("sync: %w", err)
	}
	buf := make([]byte, blockBytes)
	for i, key := range keys {
		n := m.BlockSize(key)
		if err := m.ReadAt(key.Object, key.Block*int64(blockBytes), buf[:n]); err != nil {
			return fmt.Errorf("read back %+v: %w", key, err)
		}
		want := bytes.Repeat([]byte{byte(0xC0 + i)}, blockBytes)
		if !bytes.Equal(buf[:n], want[:n]) {
			return fmt.Errorf("read back %+v: wrong bytes", key)
		}
	}
	if err := eng.CheckInvariants(); err != nil {
		return fmt.Errorf("post-write invariants: %w", err)
	}
	return m.CheckInvariants()
}
