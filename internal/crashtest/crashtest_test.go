package crashtest

import (
	"errors"
	"strings"
	"testing"

	"ssmobile/internal/engine/backends"
	"ssmobile/internal/flash"
)

// TestDefaultScriptSurvivesEveryCrashPoint is the package's reason to
// exist: the reference workload must recover cleanly from a power cut
// before, during, and after every destructive device operation — under
// every storage backend. Passing this sweep is the bar for calling a
// backend real.
func TestDefaultScriptSurvivesEveryCrashPoint(t *testing.T) {
	for _, eng := range backends.Names {
		t.Run(eng, func(t *testing.T) {
			res, err := Enumerate(Config{Engine: eng}, DefaultScript())
			if err != nil {
				t.Fatalf("enumerate: %v", err)
			}
			// The floor admits the pdl backend, whose delta records
			// collapse many host writes into fewer device programs.
			if res.DestructiveOps < 30 {
				t.Fatalf("workload too small to be interesting: %d destructive ops", res.DestructiveOps)
			}
			if want := int(res.DestructiveOps) * 3; res.PointsRun != want {
				t.Fatalf("ran %d points, want %d", res.PointsRun, want)
			}
			for _, v := range res.Violations {
				t.Errorf("%s", v)
			}
			// Torn records and torn data residue must actually occur
			// across the sweep — otherwise the enumeration is not
			// exercising the crash windows it claims to.
			if res.CorruptRecords == 0 {
				t.Errorf("no torn records seen across %d points; CutDuring is not biting", res.PointsRun)
			}
			if res.ReErasedBlocks == 0 {
				t.Errorf("no blocks re-erased across %d points; torn residue never detected", res.PointsRun)
			}
		})
	}
}

// TestEnumerateCoversCleaning checks the default workload pushes the
// translation layer into cleaning, so erase crash points are in the
// sweep.
func TestEnumerateCoversCleaning(t *testing.T) {
	st, err := buildStack("", nil)
	if err != nil {
		t.Fatal(err)
	}
	erasesSeen := false
	for _, op := range DefaultScript() {
		before := st.dev.Stats().Erases
		if err := st.apply(op); err != nil {
			t.Fatalf("clean run: %v", err)
		}
		if st.dev.Stats().Erases > before {
			erasesSeen = true
		}
	}
	if !erasesSeen {
		t.Fatal("default script never triggered an erase; cleaning crash points are untested")
	}
}

// TestMaxPointsSamples checks the CI-bounding knob: sampling runs fewer
// points but still includes the first and last op.
func TestMaxPointsSamples(t *testing.T) {
	idx := enumerationIndexes(100, 10)
	if len(idx) > 12 {
		t.Fatalf("sampled %d indexes for MaxPoints=10", len(idx))
	}
	if idx[0] != 0 || idx[len(idx)-1] != 99 {
		t.Fatalf("sample %v misses an endpoint", idx)
	}
	full := enumerationIndexes(5, 0)
	if len(full) != 5 {
		t.Fatalf("unbounded enumeration returned %d of 5", len(full))
	}
}

// TestScriptCausingEvictionsRejected checks the harness refuses scripts
// that flush outside barriers, where the data model would be unsound.
func TestScriptCausingEvictionsRejected(t *testing.T) {
	script := Script{}
	// More concurrently dirty blocks than DRAM pages forces evictions.
	for i := int64(0); i < dramPages+2; i++ {
		script = append(script, W(1, i, 512, byte(i+1)))
	}
	script = append(script, S())
	_, err := Enumerate(Config{}, script)
	if err == nil || !strings.Contains(err.Error(), "evictions") {
		t.Fatalf("eviction-causing script accepted: %v", err)
	}
}

// TestModelDetectsLostData plants a fault the recovery path cannot hide
// — the model itself must flag impossible recovered state. We simulate
// by corrupting the model (claiming a block was synced with a different
// image) and checking verify reports it; this guards the checker against
// silently passing everything.
func TestModelDetectsLostData(t *testing.T) {
	st, err := buildStack("", nil)
	if err != nil {
		t.Fatal(err)
	}
	mod := newModel(blockBytes)
	ops := Script{W(7, 0, 512, 0xAA), S()}
	for _, op := range ops {
		if err := st.apply(op); err != nil {
			t.Fatal(err)
		}
		mod.completed(op)
	}
	// Tamper: the model now expects 0xBB, the stack holds 0xAA.
	mod.completed(W(7, 0, 512, 0xBB))
	mod.completed(S())
	errs := mod.verify(st.m)
	if len(errs) == 0 {
		t.Fatal("verify accepted a mismatched synced image")
	}
}

// TestSingleFateSweep checks fate filtering: a CutBefore-only sweep runs
// one point per op and still passes.
func TestSingleFateSweep(t *testing.T) {
	script := Script{
		W(1, 0, 512, 0x11),
		W(1, 1, 300, 0x22),
		S(),
		W(1, 0, 700, 0x33),
		Tk(),
	}
	res, err := Enumerate(Config{Fates: []flash.Outcome{flash.CutBefore}}, script)
	if err != nil {
		t.Fatal(err)
	}
	if res.PointsRun != int(res.DestructiveOps) {
		t.Fatalf("ran %d points for %d ops with one fate", res.PointsRun, res.DestructiveOps)
	}
	for _, v := range res.Violations {
		t.Errorf("%s", v)
	}
}

// offsetScript writes at byte offsets into 1024-byte blocks: over
// flash-resident blocks both covering (no flash read) and not (inside,
// straddling the end, past the size), past the size of a truncated
// block whose flash or DRAM page still holds the cut tail, and into
// fresh blocks. Its churn reaches the cleaner like DefaultScript's.
func offsetScript() Script {
	return Script{
		W(1, 0, 700, 0x11),
		W(1, 1, 1024, 0x22),
		W(1, 2, 512, 0x33),
		WA(2, 0, 300, 200, 0x44), // fresh block, zero prefix
		S(),
		// Over flash-resident blocks.
		WA(1, 0, 0, 800, 0x55),   // covers the 700 stored bytes
		WA(1, 1, 100, 200, 0x66), // inside
		WA(1, 2, 400, 624, 0x77), // straddles the end
		WA(2, 0, 600, 100, 0x88), // past the size: a zero hole
		S(),
		// Truncate flushed blocks, then write past the new size: the
		// flash page still holds the cut tail, which must read as zero.
		T(1, 1, 50),
		WA(1, 1, 300, 100, 0x99),
		T(1, 2, 200),
		S(),
		WA(1, 2, 900, 124, 0xAB),
		// The same over a dirty block: its DRAM page holds the cut tail.
		W(1, 3, 1024, 0xCD),
		T(1, 3, 100),
		WA(1, 3, 500, 10, 0xEF),
		Tk(),
		// Churn to push the device into cleaning.
		WA(1, 0, 10, 20, 0x21),
		WA(1, 1, 0, 1024, 0x43),
		WA(2, 0, 1000, 24, 0x65),
		S(),
		WA(1, 2, 0, 1, 0x87),
		WA(1, 3, 1023, 1, 0xA9),
		WA(2, 1, 512, 512, 0xCB),
		S(),
		WA(1, 0, 700, 300, 0xED),
		WA(1, 1, 256, 256, 0x12),
		WA(2, 1, 0, 100, 0x34),
		Tk(),
	}
}

// TestOffsetWritesSurviveEveryCrashPoint runs the offset-write script
// under the full power-cut × fate enumeration on both backends.
func TestOffsetWritesSurviveEveryCrashPoint(t *testing.T) {
	for _, eng := range backends.Names {
		t.Run(eng, func(t *testing.T) {
			res, err := Enumerate(Config{Engine: eng}, offsetScript())
			if err != nil {
				t.Fatalf("enumerate: %v", err)
			}
			t.Logf("%d destructive ops, %d recoveries", res.DestructiveOps, res.PointsRun)
			if res.DestructiveOps < 30 {
				t.Fatalf("workload too small to be interesting: %d destructive ops", res.DestructiveOps)
			}
			if want := int(res.DestructiveOps) * 3; res.PointsRun != want {
				t.Fatalf("ran %d points, want %d", res.PointsRun, want)
			}
			for _, v := range res.Violations {
				t.Errorf("%s", v)
			}
		})
	}
}

// TestOffsetScriptReadsFlash checks the offset script takes both sides
// of the copy-on-write: reads for the non-covering writes over flash
// blocks, none for the covering one — and that it reaches the cleaner.
func TestOffsetScriptReadsFlash(t *testing.T) {
	st, err := buildStack("", nil)
	if err != nil {
		t.Fatal(err)
	}
	script := offsetScript()
	for i, op := range script {
		before := st.eng.Stats().HostReads
		if err := st.apply(op); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		reads := st.eng.Stats().HostReads - before
		switch i {
		case 5: // covering
			if reads != 0 {
				t.Errorf("covering write over a flash block read flash %d times", reads)
			}
		case 6, 7, 8:
			if reads != 1 {
				t.Errorf("op %d: non-covering write over a flash block read flash %d times, want 1", i, reads)
			}
		}
	}
	if st.dev.Stats().Erases == 0 {
		t.Error("offset script never triggered an erase; cleaning crash points are untested")
	}
}

// TestViolationNamesItsCrashPoint: `ssmsim crash` prints each violation
// by String, so the line must name the op, how it was cut, and where
// recovery failed.
func TestViolationNamesItsCrashPoint(t *testing.T) {
	for fate, want := range map[flash.Outcome]string{
		flash.CutBefore: "op 3 cut before: mount: torn",
		flash.CutDuring: "op 3 cut during: mount: torn",
		flash.CutAfter:  "op 3 cut after: mount: torn",
		flash.Run:       "op 3 cut fate(0): mount: torn",
	} {
		if got := (Violation{Index: 3, Fate: fate, Stage: "mount", Err: errors.New("torn")}).String(); got != want {
			t.Errorf("got %q, want %q", got, want)
		}
	}
}
