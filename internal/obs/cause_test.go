package obs

import "testing"

func TestCauseDefaultsToHostWrite(t *testing.T) {
	var nilObs *Observer
	if got := nilObs.Cause(); got != CauseHostWrite {
		t.Fatalf("nil observer Cause = %v, want host-write", got)
	}
	o := New(0)
	if got := o.Cause(); got != CauseHostWrite {
		t.Fatalf("fresh observer Cause = %v, want host-write", got)
	}
}

func TestPushCauseNestsAndRestores(t *testing.T) {
	o := New(0)
	outer := o.SetCause(CauseGroupCommitFlush)
	if got := o.Cause(); got != CauseGroupCommitFlush {
		t.Fatalf("after set, Cause = %v", got)
	}
	// Innermost wins while nested...
	inner := o.SetCause(CauseMetadata)
	if got := o.Cause(); got != CauseMetadata {
		t.Fatalf("nested Cause = %v, want metadata", got)
	}
	// ...and each restore reinstates exactly the enclosing scope.
	o.SetCause(inner)
	if got := o.Cause(); got != CauseGroupCommitFlush {
		t.Fatalf("after inner restore, Cause = %v, want group-commit-flush", got)
	}
	o.SetCause(outer)
	if got := o.Cause(); got != CauseHostWrite {
		t.Fatalf("after outer restore, Cause = %v, want host-write", got)
	}
}

func TestPushCauseNilObserver(t *testing.T) {
	var o *Observer
	o.SetCause(o.SetCause(CauseCleanerMigrate)) // must not panic
	if got := o.Cause(); got != CauseHostWrite {
		t.Fatalf("nil observer Cause after set/restore = %v", got)
	}
}

// A [N]string literal zero-fills a short list, so only a test notices a
// missing or misplaced name.
func TestCausesCanonicalOrder(t *testing.T) {
	want := []struct {
		c    Cause
		name string
	}{
		{CauseHostWrite, "host-write"}, {CauseGroupCommitFlush, "group-commit-flush"},
		{CauseCleanerMigrate, "cleaner-migrate"}, {CauseIdleClean, "idle-clean"},
		{CauseMountRecovery, "mount-recovery"}, {CauseMetadata, "metadata"},
	}
	if int(NumCauses) != len(want) {
		t.Fatalf("NumCauses = %d, want %d", NumCauses, len(want))
	}
	for i, w := range want {
		if w.c != Cause(i) || w.c.String() != w.name {
			t.Errorf("cause %d named %q, want cause %d named %q", w.c, w.c, i, w.name)
		}
	}
}

func TestStageNamesCanonicalOrder(t *testing.T) {
	want := []struct {
		s    Stage
		name string
	}{
		{StageQueue, "queue"}, {StageBuffer, "buffer"}, {StageFlush, "flush"},
		{StageFlash, "flash"}, {StageClean, "clean"}, {StageOther, "other"},
	}
	if int(NumStages) != len(want) || len(BreakdownStages) != len(want) {
		t.Fatalf("NumStages = %d with %d names, want %d", NumStages, len(BreakdownStages), len(want))
	}
	for i, w := range want {
		if w.s != Stage(i) || w.s.String() != w.name {
			t.Errorf("stage %d named %q, want stage %d named %q", w.s, w.s, i, w.name)
		}
	}
	if noStage.String() != "" {
		t.Errorf("the undeclared stage is named %q, want \"\"", noStage)
	}
}
