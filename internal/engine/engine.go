// Package engine defines the storage-engine contract the storage manager
// programs against: page-granular write/read/trim over a flash device,
// mount-by-device-scan recovery, idle and foreground cleaning hooks, and
// a stats surface with write amplification and free-block margin.
//
// The interface is extracted from what storman actually needs, so any
// backend that satisfies it — the default FTL (internal/ftl) or the
// page-differential log (engine/pdl) — slots under the whole serving
// stack unchanged: same write buffer, same file system, same crash-test
// enumerator. The paper's argument is that flash deserves storage
// organizations designed for it rather than a disk abstraction; this
// package is where those organizations become interchangeable.
package engine

import (
	"ssmobile/internal/flash"
	"ssmobile/internal/sim"
)

// Tag is opaque caller metadata attached to a logical page (typically an
// object id and block index). Engines that persist their mapping store
// the tag in the on-flash record and recover it at Mount.
type Tag [16]byte

// Stats aggregates the counters every backend exposes for experiments
// and dashboards. Write amplification is flash bytes programmed per host
// byte written; FreeBlockMargin is the free fraction of the block pool —
// the headroom the cleaner is defending.
type Stats struct {
	HostWrites, HostReads int64
	HostBytesWritten      int64
	FlashBytesProgrammed  int64
	FlashReads            int64
	Erases                int64
	Cleans, CopiedPages   int64
	IdleCleans            int64
	WriteAmplification    float64
	FreeBlocks            int
	FreeBlockMargin       float64
	RetiredBlocks         int
}

// MountStats reports what a mount-time device scan found beyond the live
// mapping — the wreckage a power cut left behind.
type MountStats struct {
	// CorruptRecords counts on-flash records that are neither blank nor
	// self-consistent: torn programs and trembling-erase residue.
	CorruptRecords int64
	// ReErasedBlocks counts record-free blocks that failed the blank
	// check and were erased back into the free pool.
	ReErasedBlocks int64
	// RetiredBlocks counts blocks retired as worn out during the scan.
	RetiredBlocks int64
}

// ReadRunPages is the longest run of pages a caller hands ReadPages in
// one call, and the longest an engine hands the device; scratch sized by
// it is allocated once, at construction.
const ReadRunPages = 64

// Engine is one storage organization over a flash device. Implementations
// are not safe for concurrent use; the storage manager serializes access.
//
// Contract notes beyond the signatures:
//
//   - WritePageTagged is durable on return: a power cut at any later
//     flash operation must leave the written page recoverable by the
//     backend's Mount (the crashtest enumerator enforces this per
//     backend).
//   - ReadPages charges every page it reads as a device read of its own
//     — its own bank wait, latency and energy, in list order — however
//     many pages one call carries; batching saves host work, never
//     simulated time. A never-written or trimmed page reads as erased
//     bytes (0xFF) without charging a device access.
//   - TrimPage releases the page without copying; a trimmed page may
//     resurrect after a crash, but only with bytes it actually held.
//   - Engines register their wear and cleaning telemetry under an
//     "engine" label (free_blocks, cleaner_lag_blocks,
//     write_amplification overall and per obs.Cause), so two backends
//     report into the same dashboards without colliding.
type Engine interface {
	// PageBytes reports the mapping granularity.
	PageBytes() int
	// LogicalPages reports the host-visible capacity in pages; it can
	// shrink as worn blocks retire.
	LogicalPages() int64
	// LogicalBytes reports the host-visible capacity in bytes.
	LogicalBytes() int64
	// Device exposes the underlying flash device (experiment metrics,
	// health reports).
	Device() *flash.Device

	// WritePageTagged stores one page and associates tag with it; the
	// tag rides through relocations and, when the mapping persists,
	// survives power loss.
	WritePageTagged(lpn int64, data []byte, tag Tag) error
	// ReadPages fetches the pages lpns names, in order, into consecutive
	// page-sized slices of buf (len == len(lpns)*PageBytes). Every lpn is
	// checked before any page is read.
	ReadPages(lpns []int64, buf []byte) error
	// TrimPage drops the page so its space can be reclaimed uncopied.
	TrimPage(lpn int64) error

	// Mapped reports whether the logical page currently holds data.
	Mapped(lpn int64) bool
	// TagOf reports the tag associated with a mapped page.
	TagOf(lpn int64) Tag
	// SeqOf reports the newest program sequence of the page (0 if
	// unknown); sequence numbers order versions across power failures.
	SeqOf(lpn int64) uint64
	// ForEachMapped calls fn for every mapped page in ascending order.
	ForEachMapped(fn func(lpn int64, tag Tag))
	// PersistsMapping reports whether the mapping survives power loss
	// (a prerequisite for mounting the storage manager after a crash).
	PersistsMapping() bool
	// DiffsOverwrites reports whether rewriting a mapped page programs
	// only the bytes that changed rather than a whole fresh page. The
	// file system's checkpoint asks it what appending to a partly
	// written block costs.
	DiffsOverwrites() bool

	// CleanIdle runs reclamation off the write path in the idle gap
	// that ends at until (sim.Forever when nobody is waiting): cleans
	// run until the engine's idle free-space target is met or the gap
	// is over. No clean starts at or after until; one already started
	// finishes, so the gap overruns by at most one clean. The storage
	// manager calls it from its daemon tick.
	CleanIdle(until sim.Time) error
	// CleanerLag reports how many blocks the cleaner is behind its
	// free-space target; the serving layer sheds load on this signal.
	CleanerLag() int
	// FreeBlocks reports the current free-block count.
	FreeBlocks() int

	// Stats summarises the engine counters.
	Stats() Stats
	// MountStats reports what the mount scan found (zero when the
	// engine was built fresh rather than mounted).
	MountStats() MountStats
	// CheckInvariants verifies internal consistency, returning the
	// first violation; the crash-test enumerator calls it after every
	// simulated power cut.
	CheckInvariants() error
}
