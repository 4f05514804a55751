package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ssmobile/internal/obs"
)

// The verify loop asks each determinism question once, of one shared set
// of suite executions: the whole experiment table, through the one
// runner, per seed at -parallel 1 and at -parallel 8 (one nested ForEach
// batch: experiments fan out into sweep points, yielding their worker
// token while they wait), plus one traced run at seed 1993. Every run is
// held to the goldens under testdata/, generated before the storage
// engine interface (parity), the pdl backend (e15) and this file (e16)
// existed — so
//
//	run == golden at par 1 and par 8   ⇒  par 1 ≡ par 8
//	traced run == golden              ⇒  tracing never feeds back
//
// and no test needs a second run to compare against. -short keeps seed
// 1993 only.
var suiteSeeds = []int64{1993, 1, 42}

// TestMain puts the verify loop's cost on the record (`go test -v`): how
// many times the whole table ran and how long each execution took, held
// to the budget above.
func TestMain(m *testing.M) {
	code := m.Run()
	for _, k := range suiteKeys() {
		if r := suiteRuns[k]; r != nil {
			select {
			case <-r.done:
				fmt.Printf("suite execution %+v: %.1fs\n", k, r.took.Seconds())
			default: // queued behind what a -run filter asked for; abandoned
			}
		}
	}
	if n := len(suiteRuns); n > len(suiteKeys()) {
		fmt.Printf("%d full-suite executions, budget %d\n", n, len(suiteKeys()))
		code = 1
	}
	os.Exit(code)
}

// suiteKey names one execution of the whole table.
type suiteKey struct {
	seed   int64
	par    int
	traced bool
}

// suiteKeys lists every execution this process may ask for.
func suiteKeys() []suiteKey {
	var keys []suiteKey
	for _, seed := range suiteSeeds {
		if seed != suiteSeeds[0] && testing.Short() {
			continue
		}
		keys = append(keys, suiteKey{seed, 1, false}, suiteKey{seed, 8, false})
	}
	return append(keys, suiteKey{suiteSeeds[0], 1, true})
}

// suiteRun is one execution and its outcome: the tables of every
// experiment in table order, and how many spans its observer recorded.
type suiteRun struct {
	key    suiteKey
	done   chan struct{}
	tables [][]*Table
	err    error
	spans  int64
	took   time.Duration
}

func (r *suiteRun) execute() {
	defer close(r.done)
	var o *obs.Observer
	if r.key.traced {
		o = obs.New(1 << 16)
	}
	start := time.Now()
	r.tables, r.err = runTables(IDs(), r.key.seed, NewEnv(o, r.key.par))
	r.took = time.Since(start)
	if r.key.traced {
		r.spans = o.Tracer.Total()
	}
}

var (
	suiteMu   sync.Mutex
	suiteRuns = map[suiteKey]*suiteRun{}
	// suiteQueue feeds one worker per CPU, first asked first served; the
	// workers live until the test process exits.
	suiteQueue chan *suiteRun
)

// startSuite queues execution k unless it already has been.
func startSuite(k suiteKey) *suiteRun {
	suiteMu.Lock()
	defer suiteMu.Unlock()
	if suiteQueue == nil {
		suiteQueue = make(chan *suiteRun, len(suiteKeys()))
		for i := 0; i < runtime.GOMAXPROCS(0); i++ {
			go func() {
				for r := range suiteQueue {
					r.execute()
				}
			}()
		}
	}
	r := suiteRuns[k]
	if r == nil {
		r = &suiteRun{key: k, done: make(chan struct{})}
		suiteRuns[k] = r
		suiteQueue <- r
	}
	return r
}

// suite returns execution k, run at most once per process. The first
// call also queues every other execution the package's tests will ask
// for, behind the one asked for, so they overlap with each other and
// with the tests that do not wait on them.
func suite(t *testing.T, k suiteKey) *suiteRun {
	t.Helper()
	r := startSuite(k)
	for _, other := range suiteKeys() {
		startSuite(other)
	}
	<-r.done
	if r.err != nil {
		t.Fatalf("suite %+v: %v", k, r.err)
	}
	return r
}

// eachSuiteRun runs check as a subtest per untraced execution.
func eachSuiteRun(t *testing.T, check func(t *testing.T, r *suiteRun)) {
	for _, k := range suiteKeys() {
		if k.traced {
			continue
		}
		t.Run(fmt.Sprintf("seed%d_par%d", k.seed, k.par), func(t *testing.T) {
			check(t, suite(t, k))
		})
	}
}

// goldenOf names the golden (testdata/<name>_seed<S>.golden) that pins an
// experiment's stdout: its own when one exists (e15 and e16, added after
// the parity goldens were frozen), otherwise the shared parity golden,
// which holds the rest in table order.
func goldenOf(id string, seed int64) string {
	if _, err := os.Stat(filepath.Join("testdata", fmt.Sprintf("%s_seed%d.golden", id, seed))); err == nil {
		return id
	}
	return "parity"
}

// checkGolden compares the stdout of the experiments the named golden
// pins with the file's bytes.
func (r *suiteRun) checkGolden(t *testing.T, name string) {
	t.Helper()
	var got bytes.Buffer
	for i, e := range Experiments {
		if goldenOf(e.ID, r.key.seed) == name {
			for _, tab := range r.tables[i] {
				tab.Fprint(&got)
			}
		}
	}
	file := fmt.Sprintf("%s_seed%d.golden", name, r.key.seed)
	want, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("output drifted from %s (%d bytes vs %d):\n%s", file, got.Len(), len(want),
			firstDiffLine(string(want), got.String()))
	}
}

// TestFTLBackendParity pins the refactor invariant the engine interface
// was built under: with the ftl backend (the default), the stdout of
// every experiment that existed before the interface (E1–E14, E12b) is
// byte-identical to the output committed before it — across seeds and
// across parallelism. Any drift in these bytes means a refactor changed
// behavior, not just shape.
func TestFTLBackendParity(t *testing.T) {
	eachSuiteRun(t, func(t *testing.T, r *suiteRun) { r.checkGolden(t, "parity") })
}

// TestPDLBackendParity is the pdl half of the pin above: E15 is the one
// experiment that drives the page-differential log, so its stdout —
// write amp, erases, cleans, deltas and promotions per cell, next to the
// ftl rows over the same op stream — is frozen per seed and across
// parallelism. A refactor below engine.Engine that moves any simulated
// choice on either backend moves these bytes.
func TestPDLBackendParity(t *testing.T) {
	eachSuiteRun(t, func(t *testing.T, r *suiteRun) { r.checkGolden(t, "e15") })
}

// TestFleetGolden pins E16 — the event journal's virtual-time timeline,
// the per-holder latency decomposition and the fleet rollup — per seed
// and across parallelism; with E14 in the parity goldens, this is the
// cluster experiments' determinism contract.
func TestFleetGolden(t *testing.T) {
	eachSuiteRun(t, func(t *testing.T, r *suiteRun) { r.checkGolden(t, "e16") })
}

// TestRunAllParallelMatchesSerial states the engine's central promise
// directly, of the executions the golden tests already made: per seed,
// the worker-pool run's tables render byte-identically to the sequential
// run's. When a golden fails, this is what tells scheduler leakage (this
// fails too) from a behaviour change (this still passes).
func TestRunAllParallelMatchesSerial(t *testing.T) {
	for _, seed := range suiteSeeds {
		t.Run(fmt.Sprintf("seed_%d", seed), func(t *testing.T) {
			if seed != suiteSeeds[0] && testing.Short() {
				t.Skip("-short verifies seed 1993 only")
			}
			serial, parallel := suite(t, suiteKey{seed, 1, false}), suite(t, suiteKey{seed, 8, false})
			for i, e := range Experiments {
				if s, p := render(serial.tables[i]), render(parallel.tables[i]); s != p {
					t.Errorf("%s: parallel output diverges from serial:\n%s", e.ID, firstDiffLine(s, p))
				}
			}
		})
	}
}

// TestRunAllTracedMatchesUntraced is the observability twin of the
// promise above: telemetry must never feed back into results. The whole
// suite runs against an observer with a live tracer (every span
// recorded, request contexts active in the serving experiments) and must
// reproduce the goldens. Spans never advance the simulated clock —
// recording happens at operation boundaries the clock already passed —
// so this is the test that catches any future probe that forgets the
// rule.
func TestRunAllTracedMatchesUntraced(t *testing.T) {
	r := suite(t, suiteKey{suiteSeeds[0], 1, true})
	if r.spans == 0 {
		t.Fatal("traced run recorded no spans — the observer was not wired through")
	}
	checked := map[string]bool{}
	for _, e := range Experiments {
		if name := goldenOf(e.ID, r.key.seed); !checked[name] {
			checked[name] = true
			r.checkGolden(t, name)
		}
	}
}

// TestAllExperimentsRun checks the shape of every table of the seed-1993
// sequential execution: non-empty, renderable, rows as wide as headers.
func TestAllExperimentsRun(t *testing.T) {
	r := suite(t, suiteKey{testSeed, 1, false})
	for i, e := range Experiments {
		t.Run(e.ID, func(t *testing.T) {
			if len(r.tables[i]) == 0 {
				t.Fatal("no tables")
			}
			for _, tab := range r.tables[i] {
				if len(tab.Rows) == 0 {
					t.Errorf("%s: empty table", tab.ID)
				}
				if tab.String() == "" {
					t.Errorf("%s: empty rendering", tab.ID)
				}
				for _, row := range tab.Rows {
					if len(row) != len(tab.Headers) {
						t.Errorf("%s: row width %d != header width %d", tab.ID, len(row), len(tab.Headers))
					}
				}
			}
		})
	}
}

// TestExperimentIDsStable holds the table to what its readers assume:
// ids are unique (Run resolves by id), every row is complete, and the
// suite still ends e16, e12b — the print order the goldens were cut in.
func TestExperimentIDsStable(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments {
		if e.ID == "" || e.Summary == "" || e.Run == nil {
			t.Errorf("incomplete row %q", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate id %q", e.ID)
		}
		seen[e.ID] = true
	}
	ids := IDs()
	if n := len(ids); ids[0] != "e1" || ids[n-2] != "e16" || ids[n-1] != "e12b" {
		t.Errorf("ordering wrong: %v", ids)
	}
}

// TestUnknownExperimentRejected: an unknown id fails the whole request
// before any experiment runs or prints.
func TestUnknownExperimentRejected(t *testing.T) {
	var out strings.Builder
	if err := Run(&out, []string{"e2", "e99"}, 1, nil); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if out.Len() != 0 {
		t.Fatalf("ran before rejecting the id list:\n%s", out.String())
	}
}

// TestRunAllAndRunExperimentPlumbing drives the exported runner on the
// two cheapest experiments: tables print in the order asked for.
func TestRunAllAndRunExperimentPlumbing(t *testing.T) {
	var out strings.Builder
	if err := Run(&out, []string{"e5", "e2"}, 1, NewEnv(nil, 2)); err != nil {
		t.Fatal(err)
	}
	e5, e2 := strings.Index(out.String(), "== E5"), strings.Index(out.String(), "== E2")
	if e5 < 0 || e2 < e5 {
		t.Fatalf("want E5 then E2:\n%s", out.String())
	}
}

func render(tables []*Table) string {
	var b strings.Builder
	for _, t := range tables {
		t.Fprint(&b)
	}
	return b.String()
}

// firstDiffLine renders the first line where two outputs disagree, so a
// determinism failure is debuggable from the log.
func firstDiffLine(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("outputs agree on common prefix; lengths differ: %d vs %d bytes",
		len(want), len(got))
}
