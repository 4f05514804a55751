package obs

// Wear attribution: WHY a destructive flash operation happened.
//
// The flash device counts programs and erases, but the interesting
// question for an erase-before-write medium is what made them necessary:
// a byte the host actually wrote, a group-commit flush forced by sync, a
// cleaner copying live pages out of a victim block, idle-time
// housekeeping, mount-time recovery, or filesystem metadata. The Cause
// tag answers it the same way TraceContext answers "which request": the
// single simulation thread installs the active cause on the shared
// Observer, and the flash layer reads it at each program/erase to pick
// the counter to charge. Causes are pure observation — pushing or
// popping one never advances the clock or changes any layer's behavior.
//
// Scoping rule: a nested PushCause overrides the active cause (innermost
// wins) and restores it on exit, with one exception mirroring the
// StageClean stickiness in TraceContext: cleaner work nested inside an
// idle-clean scope stays idle-clean, so the idle/foreground split of
// cleaning traffic survives the shared cleanOne path (the FTL encodes
// that exception at its call site, not here).

// Cause classifies the origin of a destructive flash operation.
type Cause string

// The cause taxonomy, from the foreground write path down to recovery.
const (
	// CauseHostWrite is data the host wrote, migrated to flash by the
	// normal write-back path. It is also the default when no cause is
	// active, so uninstrumented call paths degrade to the obvious bucket.
	CauseHostWrite Cause = "host-write"
	// CauseGroupCommitFlush is traffic forced out early by an explicit
	// sync (the server's group-commit flush, or a write buffer's Sync).
	CauseGroupCommitFlush Cause = "group-commit-flush"
	// CauseCleanerMigrate is cleaner traffic on the foreground path:
	// live-page copies and victim erases needed to reclaim space.
	CauseCleanerMigrate Cause = "cleaner-migrate"
	// CauseIdleClean is the same cleaning work done from the idle daemon,
	// off the critical path.
	CauseIdleClean Cause = "idle-clean"
	// CauseMountRecovery is mount-time work: re-erasing blocks whose
	// programs were torn by a power cut, and any recovery writes.
	CauseMountRecovery Cause = "mount-recovery"
	// CauseMetadata is filesystem metadata (the rbox checkpoint stream).
	CauseMetadata Cause = "metadata"
)

// Causes lists every cause in canonical order. Layers that register one
// collector per cause iterate this slice so registration order — and
// therefore exposition and snapshot order — is deterministic.
var Causes = []Cause{
	CauseHostWrite,
	CauseGroupCommitFlush,
	CauseCleanerMigrate,
	CauseIdleClean,
	CauseMountRecovery,
	CauseMetadata,
}

// Cause reports the active wear-attribution cause, defaulting to
// CauseHostWrite when none is installed. Nil-safe.
func (o *Observer) Cause() Cause {
	if o == nil {
		return CauseHostWrite
	}
	if p := o.cause.Load(); p != nil {
		return *p
	}
	return CauseHostWrite
}

// causeInterned backs one stable pointer per canonical cause, so pushing
// a canonical cause never forces its argument to escape.
var causeInterned = [...]Cause{
	CauseHostWrite,
	CauseGroupCommitFlush,
	CauseCleanerMigrate,
	CauseIdleClean,
	CauseMountRecovery,
	CauseMetadata,
}

func causePtr(c Cause) *Cause {
	for i := range causeInterned {
		if causeInterned[i] == c {
			return &causeInterned[i]
		}
	}
	return nil
}

var nopRestore = func() {}

// PushCause installs c as the active cause and returns a restore
// function that reinstates the previous cause; callers defer it so
// scopes nest. Nil-safe: without an observer the push is a no-op.
//
// Pushes run on every daemon pass, sync and cleaner invocation, so the
// implementation interns the canonical cause pointers and hands out
// cached restore closures: pushing and restoring a canonical cause over
// a canonical (or empty) previous cause allocates nothing.
func (o *Observer) PushCause(c Cause) (restore func()) {
	if o == nil {
		return nopRestore
	}
	p := causePtr(c)
	if p == nil {
		// Copy rather than take c's address: &c would move the argument
		// to the heap on every call, canonical or not.
		p = new(Cause)
		*p = c
	}
	prev := o.cause.Swap(p)
	return o.causeRestoreFor(prev)
}

// causeRestoreFor returns a restore closure storing prev, cached when
// prev is nil or an interned canonical pointer.
func (o *Observer) causeRestoreFor(prev *Cause) func() {
	idx := 0
	if prev != nil {
		for i := range causeInterned {
			if prev == &causeInterned[i] {
				idx = i + 1
				break
			}
		}
		if idx == 0 {
			// A non-canonical cause was active; restore it the slow way.
			return func() { o.cause.Store(prev) }
		}
	}
	// The ready flag is checked before Do so the fast path passes no
	// closure literal — sync.Once.Do's argument escapes and would
	// otherwise allocate on every push.
	if !o.causeReady.Load() {
		o.buildCauseRestores()
	}
	return o.causeRestore[idx]
}

func (o *Observer) buildCauseRestores() {
	o.causeOnce.Do(func() {
		for j := range o.causeRestore {
			var p *Cause
			if j > 0 {
				p = &causeInterned[j-1]
			}
			o.causeRestore[j] = func() { o.cause.Store(p) }
		}
		o.causeReady.Store(true)
	})
}
