package core

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// claim is one of the paper's verdicts as EXPERIMENTS.md states it, held
// as a predicate over the tables its experiment printed. Predicates state
// orders, bands and outcomes, not bytes: a change that moves a number
// without moving the verdict passes here and fails only the goldens, and
// a change that moves the verdict fails here by name.
type claim struct {
	id      string // the experiment whose tables the predicate reads
	section string // the paper section the verdict is about
	verdict string // the EXPERIMENTS.md verdict the predicate checks
	holds   func(tabs []*Table) error
}

// claims is the table of checked verdicts. Experiments without a row
// here are held by their goldens alone (ROADMAP item 21).
var claims = []claim{
	{"e3", "§3.3", "reproduced: 1MB of battery-backed buffer cuts write traffic 40-50%, and more buffer never cuts less",
		func(tabs []*Table) error {
			if r := cellNum(rowOf(tabs[0], "1MB")[1], "%"); r < 40 || r > 55 {
				return fmt.Errorf("1MB buffer cuts write traffic %.1f%%, the paper says 40-50%%", r)
			}
			prev := -1.0
			for _, row := range tabs[0].Rows {
				r := cellNum(row[1], "%")
				if r < prev {
					return fmt.Errorf("%s buffer cuts %.1f%%, less than the smaller buffer's %.1f%%", row[0], r, prev)
				}
				prev = r
			}
			return nil
		}},
	{"e5", "§3.2", "reproduced: XIP launches faster than a load from flash, which beats a load from disk",
		func(tabs []*Table) error {
			for _, row := range tabs[0].Rows {
				xip, fromFlash, fromDisk := cellDur(row[1]), cellDur(row[2]), cellDur(row[3])
				if !(xip < fromFlash && fromFlash < fromDisk) {
					return fmt.Errorf("%s: XIP %s, load from flash %s, load from disk %s", row[0], row[1], row[2], row[3])
				}
			}
			return nil
		}},
	{"e6", "§3.3", "reproduced: every log-structured policy wears flash more evenly and writes less than direct mapping",
		func(tabs []*Table) error {
			direct := rowOf(tabs[0], "direct (no leveling)")
			for _, row := range tabs[0].Rows[1:] {
				if cellNum(row[1], "") >= cellNum(direct[1], "") || cellNum(row[4], "") >= cellNum(direct[4], "") {
					return fmt.Errorf("%s: erase CoV %s, write amp %s; direct %s, %s", row[0], row[1], row[4], direct[1], direct[4])
				}
			}
			return nil
		}},
	{"e7", "§3.3", "reproduced: more flash banks stall fewer foreground reads behind programs and erases",
		func(tabs []*Table) error {
			prev := 101.0
			for _, row := range tabs[0].Rows {
				stalled := cellNum(row[5], "%")
				if stalled >= prev {
					return fmt.Errorf("%s banks stall %.1f%% of reads, not below %.1f%%", row[0], stalled, prev)
				}
				prev = stalled
			}
			return nil
		}},
	{"e8", "§4", "reproduced as stated: the best DRAM/flash split depends on the write working set",
		func(tabs []*Table) error {
			small, large := rowOf(tabs[0], "small write working set", "2/38MB"), rowOf(tabs[0], "large write working set", "2/38MB")
			if cellNum(large[3], "%") >= cellNum(small[3], "%") {
				return fmt.Errorf("at 2MB of DRAM the large working set absorbs %s, the small one %s", large[3], small[3])
			}
			for _, wl := range []string{"small write working set", "large write working set"} {
				if out := rowOf(tabs[0], wl, "32/8MB")[6]; out != "OUT OF SPACE" {
					return fmt.Errorf("%s at 32/8MB: %s, want OUT OF SPACE", wl, out)
				}
			}
			return nil
		}},
	{"e9", "§5", "the thesis holds end to end: solid-state beats disk on reads, writes, creates and energy",
		func(tabs []*Table) error {
			for _, metric := range []string{"read latency mean", "write latency mean", "create latency mean", "total energy"} {
				row := rowOf(tabs[0], metric)
				parse := cellDur
				if metric == "total energy" {
					parse = func(cell string) float64 { return cellNum(cell, " J") }
				}
				if parse(row[1]) >= parse(row[2]) {
					return fmt.Errorf("%s: solid-state %s not below disk %s", metric, row[1], row[2])
				}
			}
			return nil
		}},
	{"e10", "§3.1", "reproduced: an OS crash and a battery death lose nothing; memory lasts many days, then many hours",
		func(tabs []*Table) error {
			// "Many" is read as at least two; the backup's hours stay
			// under two days, or the paper would have said days.
			if d := cellNum(rowOf(tabs[0], "primary batteries")[3], " days"); d < 2 || d >= 100 {
				return fmt.Errorf("primary batteries hold memory %.1f days, want many days", d)
			}
			if h := cellNum(rowOf(tabs[0], "lithium backup")[3], " hours"); h < 2 || h >= 48 {
				return fmt.Errorf("the lithium backup holds memory %.1f hours, want many hours", h)
			}
			if row := rowOf(tabs[1], "OS crash"); row[2] != "0 B" || row[3] != "recovered via recovery box" {
				return fmt.Errorf("OS crash: lost %s, %s", row[2], row[3])
			}
			if row := rowOf(tabs[1], "battery death"); row[2] != "0 B" {
				return fmt.Errorf("battery death: lost %s", row[2])
			}
			return nil
		}},
}

// TestPaperClaims checks every claim against the untraced sequential
// execution of each seed the suite runs, so it adds no simulation of
// its own.
func TestPaperClaims(t *testing.T) {
	for _, c := range claims {
		t.Run(c.id, func(t *testing.T) {
			i := experimentIndex(t, c.id)
			for _, k := range suiteKeys() {
				if k.traced || k.par != 1 {
					continue
				}
				if err := evaluate(c, suite(t, k).tables[i]); err != nil {
					t.Errorf("seed %d: %s %s verdict %q fails: %v", k.seed, c.id, c.section, c.verdict, err)
				}
			}
		})
	}
}

// evaluate runs a claim's predicate, turning a table that lacks a row or
// a cell it reads into a failure rather than a panic.
func evaluate(c claim, tabs []*Table) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	return c.holds(tabs)
}

func experimentIndex(t *testing.T, id string) int {
	t.Helper()
	for i, e := range Experiments {
		if e.ID == id {
			return i
		}
	}
	t.Fatalf("no experiment %q", id)
	return -1
}

// rowOf returns the first row whose leading cells are keys.
func rowOf(tab *Table, keys ...string) []string {
next:
	for _, row := range tab.Rows {
		for i, k := range keys {
			if row[i] != k {
				continue next
			}
		}
		return row
	}
	panic(fmt.Sprintf("%s has no row %q", tab.ID, keys))
}

// cellNum parses a number printed with the given unit suffix.
func cellNum(cell, unit string) float64 {
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, unit), 64)
	if err != nil {
		panic(fmt.Sprintf("cell %q is not a number of %q", cell, unit))
	}
	return v
}

// cellDur parses a cell fmtDur printed, in nanoseconds.
func cellDur(cell string) float64 {
	for _, u := range []struct {
		suffix string
		ns     float64
	}{{"ns", 1}, {"us", 1e3}, {"ms", 1e6}, {"s", 1e9}} {
		if strings.HasSuffix(cell, u.suffix) {
			return cellNum(cell, u.suffix) * u.ns
		}
	}
	panic(fmt.Sprintf("cell %q is not a duration", cell))
}
