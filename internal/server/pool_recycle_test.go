// Pool-recycling correctness under concurrency. The serve hot path
// recycles request buffers, trace contexts, inodes, and block-location
// records; these tests pin that recycled objects come back fully reset
// (no aliased byte slices, no stale state) and that the global
// sync.Pool-backed scratch (the fs snapshot encoder) is safe when eight
// workload drivers run in parallel. The suite runs under -race in CI,
// which is what gives the parallel test its teeth.
package server_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"ssmobile/internal/core"
	"ssmobile/internal/obs"
	"ssmobile/internal/server"
	"ssmobile/internal/workload"
)

// TestRecycledBuffersNoAliasing writes distinctive payloads through the
// pooled request path, interleaving objects so every buffer is recycled
// many times, then reads everything back against an independent shadow
// copy. Any aliasing between a recycled buffer and live object data
// shows up as cross-contaminated bytes.
func TestRecycledBuffersNoAliasing(t *testing.T) {
	_, srv := newStack(t, core.SolidStateConfig{})
	sess, err := srv.Open("alias")
	if err != nil {
		t.Fatal(err)
	}
	const objects = 12
	shadow := make(map[uint64][]byte, objects)
	pattern := func(key uint64, gen int) []byte {
		p := make([]byte, 512+int(key)*17)
		for i := range p {
			p[i] = byte(key)*31 + byte(gen)*7 + byte(i)
		}
		return p
	}
	// Three overwrite generations so earlier payload buffers are long
	// recycled by the time the last generation lands.
	for gen := 0; gen < 3; gen++ {
		for key := uint64(0); key < objects; key++ {
			p := pattern(key, gen)
			if _, err := sess.Do(server.Request{Kind: server.OpPut, Key: key, Data: p}); err != nil {
				t.Fatalf("put key %d gen %d: %v", key, gen, err)
			}
			shadow[key] = p
		}
	}
	for key := uint64(0); key < objects; key++ {
		want := shadow[key]
		resp, err := sess.Do(server.Request{
			Kind: server.OpGet, Key: key, Size: int64(len(want)),
		})
		if err != nil {
			t.Fatalf("get key %d: %v", key, err)
		}
		if !bytes.Equal(resp.Data, want) {
			t.Fatalf("key %d: recycled buffers corrupted object data", key)
		}
	}
}

// TestParallelWorkloadDriversDeterministic runs eight full serving
// stacks concurrently, each driving the same seeded workload with
// tracing enabled. Every driver must produce the stats of a solo run:
// the pools inside each stack are single-driver, but the package-global
// sync.Pool scratch is shared across all eight, so incomplete resets or
// unsynchronized reuse diverge the stats or trip the race detector.
func TestParallelWorkloadDriversDeterministic(t *testing.T) {
	const drivers = 8
	run := func() (server.RunStats, error) {
		card, err := core.NewServedCard(core.ServedCardConfig{System: core.SolidStateConfig{
			DRAMBytes: 4 << 20, FlashBytes: 8 << 20, RBoxBytes: 256 << 10, Obs: obs.New(1 << 12),
		}})
		if err != nil {
			return server.RunStats{}, err
		}
		return server.RunWorkload(card.Srv, workload.Config{
			Seed: 1993, Clients: 4, OpsPerClient: 150, Keys: 8,
			Popularity: workload.Zipf,
			Mix:        workload.Mix{Read: 0.5, Write: 0.4, Delete: 0.05, Sync: 0.05},
		})
	}
	want, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if want.Completed == 0 {
		t.Fatal("reference run completed nothing")
	}

	var wg sync.WaitGroup
	errs := make(chan error, drivers)
	for d := 0; d < drivers; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			got, err := run()
			if err != nil {
				errs <- fmt.Errorf("driver %d: %w", d, err)
				return
			}
			if got.Completed != want.Completed || got.Shed != want.Shed ||
				got.NotFound != want.NotFound || got.Elapsed != want.Elapsed ||
				got.Lat.Sum() != want.Lat.Sum() {
				errs <- fmt.Errorf("driver %d diverged from solo run:\n got %+v\nwant %+v", d, got, want)
			}
		}(d)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
