package obs

// Wear attribution: WHY a destructive flash operation happened.
//
// The flash device counts programs and erases, but the interesting
// question for an erase-before-write medium is what made them necessary:
// a byte the host actually wrote, a group-commit flush forced by sync, a
// cleaner copying live pages out of a victim block, idle-time
// housekeeping, mount-time recovery, or filesystem metadata. The Cause
// tag answers it the same way TraceContext answers "which request": the
// single simulation thread sets the active cause on the shared Observer,
// and the flash layer reads it at each program/erase to pick the counter
// to charge. Causes are pure observation — setting one never advances
// the clock or changes any layer's behavior.
//
// Scoping rule: a scope sets its cause and restores the one it replaced
// on exit (`defer o.SetCause(o.SetCause(c))`), so the innermost scope
// wins, with one exception mirroring the StageClean stickiness in
// TraceContext: cleaner work nested inside an idle-clean scope stays
// idle-clean, so the idle/foreground split of cleaning traffic survives
// the shared cleanOne path (the cleaner encodes that exception at its
// call site, not here).

// Cause classifies the origin of a destructive flash operation.
type Cause int

// The cause taxonomy, from the foreground write path down to recovery,
// in canonical order: layers that register one collector per cause walk
// it from 0 to NumCauses, so exposition and snapshot order is fixed.
const (
	// CauseHostWrite is data the host wrote, migrated to flash by the
	// normal write-back path. It is also the zero value, and so the
	// cause when none is set: uninstrumented call paths degrade to the
	// obvious bucket.
	CauseHostWrite Cause = iota
	// CauseGroupCommitFlush is traffic forced out early by an explicit
	// sync (the server's group-commit flush, or a write buffer's Sync).
	CauseGroupCommitFlush
	// CauseCleanerMigrate is cleaner traffic on the foreground path:
	// live-page copies and victim erases needed to reclaim space.
	CauseCleanerMigrate
	// CauseIdleClean is the same cleaning work done from the idle daemon,
	// off the critical path.
	CauseIdleClean
	// CauseMountRecovery is mount-time work: re-erasing blocks whose
	// programs were torn by a power cut, and any recovery writes.
	CauseMountRecovery
	// CauseMetadata is filesystem metadata (the rbox checkpoint stream).
	CauseMetadata
	// NumCauses is the number of causes.
	NumCauses
)

// causeNames spells each cause as its metric label does.
var causeNames = [NumCauses]string{
	"host-write", "group-commit-flush", "cleaner-migrate",
	"idle-clean", "mount-recovery", "metadata",
}

// String reports the cause's label value.
func (c Cause) String() string { return causeNames[c] }

// Cause reports the active wear-attribution cause. Nil-safe: without an
// observer it is CauseHostWrite.
func (o *Observer) Cause() Cause {
	if o == nil {
		return CauseHostWrite
	}
	return o.cause
}

// SetCause installs c as the active cause and returns the cause it
// replaced, so `defer o.SetCause(o.SetCause(c))` scopes c to the calling
// function. Nil-safe: without an observer it does nothing.
func (o *Observer) SetCause(c Cause) (prev Cause) {
	if o == nil {
		return CauseHostWrite
	}
	prev, o.cause = o.cause, c
	return prev
}
