// Package blocks is the flash-block substrate both storage engines stand
// on: the part of the paper's storage manager (§3.3) that owns the free
// flash sectors and hides erase-before-write and limited endurance from
// everything above it.
//
// A Pool is the ledger of one device's erase blocks — which are free, in
// use or retired, and how much logical capacity that leaves — and every
// decision about a block that does not depend on what a page *is* is
// made here, once: erase-or-retire, the blank check, sealing and opening
// on-flash records, the mount-time spare scan and block classification,
// and the space-pressure loop (foreground reserve, idle target, cleaner
// lag) with its spans, wear-attribution causes, counters and gauges.
//
// What stays with the engine is policy and page format: which free block
// to take, which victim to clean and how its live data moves, and what a
// record's payload says. The pool calls back for exactly those — pick a
// victim, clean one, name the open log heads — through funcs bound once
// at construction.
//
// One question about those choices is the pool's, because its answer is
// a fact about the device and not about any page: which banks are busy.
// An erase occupies its bank for as long as dozens of page programs
// (paper §3.3: "partition flash memory into two or more banks" so work in
// one proceeds while another erases), so an engine that opens its next
// log head in a bank that is erasing, or erases where it is about to
// write, waits out work the other banks could have hidden. BankIdle and
// VictimClasses answer it; engines rank by the answer first and by their
// own order inside a rank (Victim.Offer), so the preference never costs
// progress.
package blocks

import (
	"errors"
	"fmt"

	"ssmobile/internal/engine"
	"ssmobile/internal/flash"
	"ssmobile/internal/obs"
	"ssmobile/internal/sim"
)

// ErrNoSpace reports that every block is live and nothing can be
// reclaimed.
var ErrNoSpace = errors.New("flash blocks: no space")

type blockState uint8

const (
	stateFree blockState = iota
	stateInUse
	stateRetired
)

// Pool is the block ledger over one flash device. Not safe for
// concurrent use.
type Pool struct {
	dev   *flash.Device
	clock *sim.Clock
	obs   *obs.Observer
	layer string

	pageBytes, ppb int
	idleTarget     int
	pick           func() int
	clean          func(victim int) error
	heads          func() (int, int)

	state         []blockState
	free, retired int
	logicalPages  int64
	mount         engine.MountStats

	hostWrites, hostReads, hostBytes *obs.Counter
	cleans, copies, idleCleans       *obs.Counter
	idleYields                       *obs.Counter
	idleBurst                        *obs.Histogram

	// classes is VictimClasses' result, one entry per bank, reused across
	// picks; victimClass counts cleaned blocks by the class their bank
	// was in, busyHeads the log heads opened in a bank that was busy.
	classes     []VictimClass
	victimClass [Quiet + 1]*obs.Counter
	busyHeads   *obs.Counter
}

// VictimClass ranks a bank as a place to erase right now. Higher is
// better; an engine picks its victim from the highest class that has
// one, by its own score inside the class.
type VictimClass uint8

const (
	// Busy: an operation is in progress on the bank, so an erase queued
	// there starts late and everything behind it waits longer still.
	Busy VictimClass = iota
	// Idle: nothing in progress, but one of the engine's open log heads
	// is in the bank, so its next programs would wait the erase out.
	Idle
	// Quiet: nothing in progress and no log head — an erase here is
	// hidden from both the cleaner and the writer.
	Quiet
)

var victimClassNames = [...]string{Busy: "busy", Idle: "idle", Quiet: "quiet"}

// Reserve is the cleaning headroom in blocks: cleaning keeps more than
// this many blocks free on the write path.
const Reserve = 3

// New builds the ledger over a freshly erased device (every block free)
// and registers the engine's shared telemetry under layer/engine=layer.
//
// pageBytes is the mapping granularity and must divide the erase block.
// Cleaning keeps idleTarget blocks free in idle time (0 disables idle
// cleaning). pick returns the next victim block or -1; clean relocates a
// victim's live data and hands the block back through Erase; heads names
// the blocks of the engine's two open log heads, -1 for one not open. An
// engine that never cleans passes nil for all three and gets the whole
// device as logical space; a cleaning engine gives up Reserve blocks
// plus its two log heads.
func New(dev *flash.Device, clock *sim.Clock, o *obs.Observer, layer string,
	pageBytes, idleTarget int,
	pick func() int, clean func(victim int) error, heads func() (int, int)) (*Pool, error) {
	if pageBytes <= 0 || dev.BlockBytes()%pageBytes != 0 {
		return nil, fmt.Errorf("%s: page size %d does not divide block size %d", layer, pageBytes, dev.BlockBytes())
	}
	ppb := dev.BlockBytes() / pageBytes
	nb := dev.NumBlocks()
	p := &Pool{
		dev: dev, clock: clock, obs: o, layer: layer,
		pageBytes: pageBytes, ppb: ppb,
		idleTarget: idleTarget, pick: pick, clean: clean, heads: heads,
		state: make([]blockState, nb), free: nb,
		logicalPages: int64(nb) * int64(ppb),
		classes:      make([]VictimClass, dev.Banks()),
	}
	if pick != nil {
		overhead := int64(Reserve+2) * int64(ppb)
		if overhead >= p.logicalPages {
			return nil, fmt.Errorf("%s: reserve %d blocks leaves no logical space on %d blocks", layer, Reserve, nb)
		}
		p.logicalPages -= overhead
	}

	p.hostWrites = o.Counter("host_ops_total", obs.Labels{"layer": layer, "op": "write"})
	p.hostReads = o.Counter("host_ops_total", obs.Labels{"layer": layer, "op": "read"})
	p.hostBytes = o.Counter("host_bytes_total", obs.Labels{"layer": layer, "op": "write"})
	p.cleans = o.Counter("cleans_total", obs.Labels{"layer": layer})
	p.copies = o.Counter("copied_pages_total", obs.Labels{"layer": layer})
	p.idleCleans = o.Counter("idle_cleans_total", obs.Labels{"layer": layer})
	// The idle cleaner's one decision, on the record: how often a gap
	// ended with the pool still under its target, and how many cleans
	// each gap that ran any got through.
	p.idleYields = o.Counter("idle_clean_yields_total", obs.Labels{"layer": layer})
	p.idleBurst = o.Histogram("idle_clean_burst", obs.Labels{"layer": layer})
	// The two bank decisions, on the record: where the cleaned blocks
	// were, and how often a head had to open where the card was busy.
	for c, name := range victimClassNames {
		p.victimClass[c] = o.Counter("victim_bank_class_total", obs.Labels{"layer": layer, "class": name})
	}
	p.busyHeads = o.Counter("head_opened_in_busy_bank_total", obs.Labels{"layer": layer})
	// Wear and cleaning gauges carry an "engine" label so the backends
	// report the same series into shared dashboards without colliding.
	// The serving layer sheds load on the same CleanerLag the gauge
	// shows, so backpressure and dashboards share one definition of
	// "cleaner behind".
	o.GaugeFunc("free_blocks", obs.Labels{"layer": layer, "engine": layer}, func() float64 { return float64(p.free) })
	o.GaugeFunc("cleaner_lag_blocks", obs.Labels{"layer": layer, "engine": layer}, func() float64 { return float64(p.CleanerLag()) })
	// Write amplification: flash bytes programmed per host byte written,
	// overall and by wear-attribution cause (the device charges every
	// program to the observer's active obs.Cause, so the per-cause series
	// sum to the overall gauge by construction).
	o.GaugeFunc("write_amplification", obs.Labels{"layer": layer, "engine": layer},
		func() float64 { return p.amplification(dev.BytesProgrammed()) })
	for c := obs.Cause(0); c < obs.NumCauses; c++ {
		o.GaugeFunc("write_amplification", obs.Labels{"layer": layer, "engine": layer, "cause": c.String()},
			func() float64 { return p.amplification(dev.CauseBytesProgrammed(c)) })
	}
	return p, nil
}

// RequireSpare verifies the device can carry one page record per page.
func (p *Pool) RequireSpare() error {
	dc := p.dev.Config()
	if dc.SpareBytes < PageRecordBytes {
		return fmt.Errorf("%s: device spare of %d bytes below the %d-byte record", p.layer, dc.SpareBytes, PageRecordBytes)
	}
	if dc.SpareUnitBytes != p.pageBytes {
		return fmt.Errorf("%s: device spare unit %d != page size %d", p.layer, dc.SpareUnitBytes, p.pageBytes)
	}
	return nil
}

// PagesPerBlock reports how many pages one erase block holds.
func (p *Pool) PagesPerBlock() int { return p.ppb }

// LogicalPages reports the host-visible capacity in pages; it shrinks by
// a block's worth each time a block retires.
func (p *Pool) LogicalPages() int64 { return p.logicalPages }

// Free reports the free-block count.
func (p *Pool) Free() int { return p.free }

// Retired reports how many blocks have worn out of service: Stats'
// RetiredBlocks without the rest of Stats.
func (p *Pool) Retired() int { return p.retired }

// IsFree reports whether the block is erased and unallocated.
func (p *Pool) IsFree(b int) bool { return p.state[b] == stateFree }

// InUse reports whether the block has been taken and not yet erased.
func (p *Pool) InUse(b int) bool { return p.state[b] == stateInUse }

// IsRetired reports whether the block has worn out of service.
func (p *Pool) IsRetired(b int) bool { return p.state[b] == stateRetired }

// BankIdle reports whether nothing is in progress on the bank at this
// moment of the engine's clock: a program or erase issued there now
// starts now.
func (p *Pool) BankIdle(bank int) bool { return p.dev.BankBusyUntil(bank) <= p.clock.Now() }

// VictimClasses ranks every bank as a place to erase right now, given
// where the engine's log heads are open. The result is indexed by bank
// and is scratch, valid until the next call.
func (p *Pool) VictimClasses() []VictimClass {
	headA, headB := p.heads()
	if headA >= 0 {
		headA = p.dev.BankOf(headA)
	}
	if headB >= 0 {
		headB = p.dev.BankOf(headB)
	}
	for bank := range p.classes {
		switch {
		case !p.BankIdle(bank):
			p.classes[bank] = Busy
		case bank == headA || bank == headB:
			p.classes[bank] = Idle
		default:
			p.classes[bank] = Quiet
		}
	}
	return p.classes
}

// Victim is the best candidate seen so far in one victim selection, and
// the one place the ranking is written: where a block is outranks what it
// holds. An engine offers every candidate it considers with its bank's
// class and its own score (larger is cleaned first); the best class wins,
// then the best score, then the lowest block id.
type Victim struct {
	Block int // -1 until a candidate is offered
	class VictimClass
	score float64
}

// NoVictim is the selection before any candidate is offered.
func NoVictim() Victim { return Victim{Block: -1} }

// Offer considers one candidate.
func (v *Victim) Offer(block int, class VictimClass, score float64) {
	if v.Block == -1 || class > v.class ||
		class == v.class && (score > v.score || score == v.score && block < v.Block) {
		*v = Victim{Block: block, class: class, score: score}
	}
}

// Take moves a free block into use, as the engine's next log head. Which
// block is the engine's choice; the pool only records whether the choice
// had to land in a busy bank.
func (p *Pool) Take(b int) {
	if !p.BankIdle(p.dev.BankOf(b)) {
		p.busyHeads.Inc()
	}
	p.take(b)
}

func (p *Pool) take(b int) {
	if p.state[b] != stateFree {
		panic(fmt.Sprintf("%s: take of non-free block %d", p.layer, b))
	}
	p.state[b] = stateInUse
	p.free--
}

// Erase erases a block whose contents are dead in the background, so
// the writer does not stall for it (the bank stays busy), and returns it
// to the free pool. A block that has exhausted its endurance is
// retired instead (freed == false, no error): the clean that emptied it
// still succeeded, but the device lost a block of capacity.
func (p *Pool) Erase(b int) (freed bool, err error) {
	if p.state[b] != stateInUse {
		panic(fmt.Sprintf("%s: erase of block %d, which is not in use", p.layer, b))
	}
	err = p.dev.EraseAsync(b)
	if errors.Is(err, flash.ErrWornOut) {
		p.retire(b)
		return false, nil
	}
	if err != nil {
		return false, err
	}
	p.state[b] = stateFree
	p.free++
	return true, nil
}

func (p *Pool) retire(b int) {
	if p.state[b] == stateFree {
		p.free--
	}
	p.state[b] = stateRetired
	p.retired++
	p.logicalPages -= int64(p.ppb)
	if p.logicalPages < 0 {
		p.logicalPages = 0
	}
}

// EnsureSpace cleans until the free pool is above the reserve; engines
// call it before every write that may open a block. A device that is
// exactly full with no dead space has nothing to clean but can still
// absorb writes from its remaining free blocks, so the absence of a
// victim is only fatal once the free pool is empty.
func (p *Pool) EnsureSpace() error {
	for p.free <= Reserve {
		victim := p.pick()
		if victim == -1 {
			if p.free > 0 {
				return nil
			}
			return ErrNoSpace
		}
		if err := p.Clean(victim); err != nil {
			return err
		}
	}
	return nil
}

// CleanIdle cleans in the idle gap that ends at until: it runs cleans
// back to back until the idle target is met, nothing is cleanable, or
// the gap is over, so foreground writes rarely wait for the cleaner.
// The caller states the gap (the next arrival, or sim.Forever when
// nobody is waiting); the pool starts no clean at or after its end. A
// clean once started runs to completion — its relocations are not
// resumable and a half-cleaned victim frees nothing — so whoever
// arrives at until waits out at most one.
func (p *Pool) CleanIdle(until sim.Time) error {
	// Most idle gaps find the target met and return here.
	if p.idleTarget <= 0 || p.pick == nil || p.free >= p.idleTarget {
		return nil
	}
	defer p.obs.SetCause(p.obs.SetCause(obs.CauseIdleClean))
	var err error
	burst := 0
	for err == nil && p.free < p.idleTarget {
		if p.clock.Now() >= until {
			p.idleYields.Inc()
			break
		}
		victim := p.pick()
		if victim == -1 {
			break
		}
		p.idleCleans.Inc()
		burst++
		err = p.Clean(victim)
	}
	if burst > 0 {
		p.idleBurst.Observe(float64(burst))
	}
	return err
}

// CleanerLag reports how many blocks the cleaner is behind its
// free-space target: the idle target when idle cleaning is enabled,
// otherwise one block above the foreground reserve. Zero means cleaning
// is keeping pace; positive values mean new writes are eating free space
// faster than it is being reclaimed.
func (p *Pool) CleanerLag() int {
	target := p.idleTarget
	if target <= 0 {
		target = Reserve + 1
	}
	if lag := target - p.free; lag > 0 {
		return lag
	}
	return 0
}

// Clean runs the engine's clean of one victim under the conventions
// every cleaner shares. A clean running under a request context is
// induced work: the request did not ask for it, its timing just got
// charged it, so the span carries a FollowFrom link to the request's
// root and the clean stage is sticky — relocation reads/programs and the
// erase all count as cleaning stall. Its programs and erase are charged
// to the cleaner cause, unless an idle-clean scope is already active:
// idle cleaning is sticky over the shared path, so the idle/foreground
// split survives.
func (p *Pool) Clean(victim int) (err error) {
	sp := p.obs.InducedSpan(p.clock, p.dev.Meter(), p.layer, "clean", obs.StageClean)
	defer func() { sp.End(int64(p.ppb)*int64(p.pageBytes), err) }()
	if p.obs.Cause() != obs.CauseIdleClean {
		defer p.obs.SetCause(p.obs.SetCause(obs.CauseCleanerMigrate))
	}
	p.cleans.Inc()
	p.victimClass[p.VictimClasses()[p.dev.BankOf(victim)]].Inc()
	return p.clean(victim)
}

// Span opens an op span against the engine's clock and the device's
// energy meter, so span energy includes the device work underneath.
func (p *Pool) Span(op string) obs.SpanRef {
	return p.obs.Span(p.clock, p.dev.Meter(), p.layer, op)
}

// NoteHostWrite counts one host page write of n bytes.
func (p *Pool) NoteHostWrite(n int) {
	p.hostWrites.Inc()
	p.hostBytes.Add(int64(n))
}

// NoteHostReads counts n host page reads.
func (p *Pool) NoteHostReads(n int) { p.hostReads.Add(int64(n)) }

// NoteCopy counts one live page the cleaner had to move.
func (p *Pool) NoteCopy() { p.copies.Inc() }

func (p *Pool) amplification(flashBytes int64) float64 {
	hb := p.hostBytes.Value()
	if hb == 0 {
		return 0
	}
	return float64(flashBytes) / float64(hb)
}

// Stats summarises the ledger, the shared counters and the device.
func (p *Pool) Stats() engine.Stats {
	ds := p.dev.Stats()
	margin := 0.0
	if nb := len(p.state); nb > 0 {
		margin = float64(p.free) / float64(nb)
	}
	return engine.Stats{
		HostWrites:           p.hostWrites.Value(),
		HostReads:            p.hostReads.Value(),
		HostBytesWritten:     p.hostBytes.Value(),
		FlashBytesProgrammed: ds.BytesProgrammed,
		FlashReads:           ds.Reads,
		Erases:               ds.Erases,
		Cleans:               p.cleans.Value(),
		CopiedPages:          p.copies.Value(),
		IdleCleans:           p.idleCleans.Value(),
		WriteAmplification:   p.amplification(ds.BytesProgrammed),
		FreeBlocks:           p.free,
		FreeBlockMargin:      margin,
		RetiredBlocks:        p.retired,
	}
}

// MountStats reports what ScanRecords and Settle found; zero for a pool
// that never mounted.
func (p *Pool) MountStats() engine.MountStats { return p.mount }

// NonBlankAt reports the first non-erased byte offset in the block's
// data or spare area (spare offsets follow data offsets), without
// charging the device. A fully erased block returns ok == false.
func (p *Pool) NonBlankAt(b int) (off int64, ok bool) {
	if off, ok := p.dev.NonErasedAt(b); ok {
		return off, true
	}
	dc := p.dev.Config()
	start := p.dev.BlockAddr(b)
	if dc.SpareBytes > 0 {
		firstUnit := start / int64(dc.SpareUnitBytes)
		unitsPerBlock := int64(dc.BlockBytes / dc.SpareUnitBytes)
		for u := int64(0); u < unitsPerBlock; u++ {
			for j, sb := range p.dev.PeekSpare(firstUnit + u) {
				if sb != 0xFF {
					return int64(dc.BlockBytes) + u*int64(dc.SpareBytes) + int64(j), true
				}
			}
		}
	}
	return 0, false
}

// CheckInvariants verifies the ledger against the device: the free count
// matches the block states, and every free block is genuinely erased —
// engines program free blocks without erasing first, so torn residue
// there (a crash-recovery leak) would surface later as a phantom
// overwrite error.
func (p *Pool) CheckInvariants() error {
	free := 0
	for b, s := range p.state {
		if s != stateFree {
			continue
		}
		free++
		if off, dirty := p.NonBlankAt(b); dirty {
			return fmt.Errorf("%s: free block %d not erased at offset %d", p.layer, b, off)
		}
	}
	if free != p.free {
		return fmt.Errorf("%s: free count %d, scan found %d", p.layer, p.free, free)
	}
	return nil
}
