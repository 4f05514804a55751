package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// parityIDs is the experiment set frozen into the parity goldens: every
// experiment that existed before the storage-engine interface landed, in
// the order RunAll prints them. E15 (the engine head-to-head) is
// deliberately absent — it is the one experiment allowed to behave
// differently per backend; TestPDLBackendParity pins it separately.
var parityIDs = []string{
	"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9",
	"e10", "e11", "e12", "e13", "e14", "e12b",
}

// TestFTLBackendParity pins the refactor invariant the engine interface
// was built under: with the ftl backend (the default), every preexisting
// experiment's stdout is byte-identical to the output committed before
// the interface existed — across seeds and across parallelism. Any drift
// in these bytes means the extraction changed behavior, not just shape.
func TestFTLBackendParity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full experiment suite six times")
	}
	for _, seed := range []int64{1993, 1, 42} {
		golden, err := os.ReadFile(filepath.Join("testdata", fmt.Sprintf("parity_seed%d.golden", seed)))
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 8} {
			seed, par := seed, par
			t.Run(fmt.Sprintf("seed%d_par%d", seed, par), func(t *testing.T) {
				t.Parallel()
				var buf bytes.Buffer
				for _, id := range parityIDs {
					if err := RunExperimentParallel(&buf, id, seed, par); err != nil {
						t.Fatalf("%s: %v", id, err)
					}
				}
				if !bytes.Equal(buf.Bytes(), golden) {
					t.Fatalf("seed %d par %d: output drifted from the pre-engine golden (%d bytes vs %d); the ftl backend is no longer behavior-identical",
						seed, par, buf.Len(), len(golden))
				}
			})
		}
	}
}

// TestPDLBackendParity is the pdl half of the pin above: E15 is the one
// experiment that drives the page-differential log, so its stdout —
// write amp, erases, cleans, deltas and promotions per cell, next to the
// ftl rows over the same op stream — is frozen per seed and across
// parallelism. A refactor below engine.Engine that moves any simulated
// choice on either backend moves these bytes.
func TestPDLBackendParity(t *testing.T) {
	for _, seed := range []int64{1993, 1, 42} {
		golden, err := os.ReadFile(filepath.Join("testdata", fmt.Sprintf("e15_seed%d.golden", seed)))
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 8} {
			seed, par := seed, par
			t.Run(fmt.Sprintf("seed%d_par%d", seed, par), func(t *testing.T) {
				t.Parallel()
				var buf bytes.Buffer
				if err := RunExperimentParallel(&buf, "e15", seed, par); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf.Bytes(), golden) {
					t.Fatalf("seed %d par %d: e15 output drifted from the golden:\n%s", seed, par, buf.String())
				}
			})
		}
	}
}
