package server_test

import (
	"errors"
	"math/rand"
	"testing"

	"ssmobile/internal/core"
	"ssmobile/internal/engine/backends"
	"ssmobile/internal/server"
	"ssmobile/internal/sim"
)

// The burst this test exists for: a card whose cleaner is several blocks
// behind gets one idle moment, and the request that ends the moment
// waits for whatever the cleaner started in it. The cleaner is told when
// the gap ends, so that is one clean — not the run of cleans that takes
// the card back to its target — and a quiet hour still takes it there.
func TestIdleCleanYieldsToArrivals(t *testing.T) {
	const (
		keys     = 8
		objBytes = 64 << 10
		xfer     = 4096
		gap      = 500 * sim.Millisecond
	)
	for _, eng := range backends.Names {
		t.Run(eng, func(t *testing.T) {
			sys, srv := newStack(t, core.SolidStateConfig{
				Engine: eng, IdleCleanBlocks: 24,
				BufferBytes: 256 << 10, WriteBackDelay: 2 * sim.Second,
			})
			sess, err := srv.Open("t")
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1993))
			buf := make([]byte, xfer)
			put := func(key uint64, off int64, arrival sim.Time) (sim.Duration, bool) {
				rng.Read(buf)
				followsGap := arrival > srv.Now()
				resp, err := sess.Do(server.Request{Kind: server.OpPut, Key: key, Offset: off, Data: buf, Arrival: arrival})
				if errors.Is(err, server.ErrOverloaded) {
					return 0, false
				}
				if err != nil {
					t.Fatal(err)
				}
				return resp.Latency, followsGap
			}

			// Age the card the way core's ageDevice does, minus the ticks
			// that would let the cleaner keep up: fill a file under the
			// server, then overwrite it at random, syncing to push the
			// buffer to flash, until the cleaner is behind.
			const agePages = 88 * 16 // 5.5 MB live on an 8 MB card
			if err := sys.FS.Create("/age"); err != nil {
				t.Fatal(err)
			}
			aged := 0
			age := func(page int) {
				rng.Read(buf)
				if _, err := sys.FS.WriteAt("/age", int64(page)*xfer, buf); err != nil {
					t.Fatal(err)
				}
				if aged++; aged%32 == 0 {
					if err := sys.FS.Sync(); err != nil {
						t.Fatal(err)
					}
				}
			}
			for page := 0; page < agePages; page++ {
				age(page)
			}
			for sys.Engine.CleanerLag() < 5 {
				if aged > 50000 {
					t.Fatalf("cleaner lag %d after %d writes", sys.Engine.CleanerLag(), aged)
				}
				age(rng.Intn(agePages))
			}

			// One clean at its longest: every page of the victim relocated
			// (read and programmed), then the erase.
			fc := sys.Flash.Config()
			oneClean := sim.Duration(fc.Params.ReadLatencyNs(fc.BlockBytes) +
				fc.Params.WriteLatencyNs(fc.BlockBytes) + fc.Params.EraseLatencyNs)

			var worst sim.Duration
			gaps := 0
			at := srv.Now()
			for i := 0; i < 120; i++ {
				at = at.Add(gap)
				lat, followsGap := put(uint64(rng.Intn(keys)), int64(rng.Intn(objBytes/xfer))*xfer, at)
				if followsGap {
					gaps++
					worst = max(worst, lat)
				}
			}
			if gaps == 0 {
				t.Fatal("no request followed an idle gap")
			}
			t.Logf("%d of 120 requests followed an idle gap; worst latency %v = %.1f cleans (one clean <= %v)",
				gaps, worst, float64(worst)/float64(oneClean), oneClean)
			if worst > 2*oneClean {
				t.Errorf("a request that followed an idle gap waited %v, %.1f cleans' time; want at most 2",
					worst, float64(worst)/float64(oneClean))
			}

			// A quiet hour is long enough for everything: the buffer drains
			// as its blocks come of age, the cleaner reaches its target, and
			// the hour is not overrun.
			end := srv.Now().Add(sim.Hour)
			if err := srv.Idle(end); err != nil {
				t.Fatal(err)
			}
			if lag := sys.Engine.CleanerLag(); lag != 0 {
				t.Errorf("cleaner lag %d after an idle hour", lag)
			}
			if srv.Now() != end {
				t.Errorf("an idle hour ended at %v, want %v", srv.Now(), end)
			}
		})
	}
}
