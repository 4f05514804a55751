package main

import (
	"testing"

	"ssmobile/internal/server"
	"ssmobile/internal/workload"
)

// saturating is a small card under a write-heavy open-loop load fast
// enough to engage admission control, with deletes and truncates in the
// mix: every outcome the two drivers must agree on shows up. Keys and
// rate grow with the node count so each node stays as loaded.
func saturating(nodes int) (spec, workload.Config) {
	s := spec{
		name: "driver_test", nodes: nodes, engine: "ftl",
		dramMB: 4, flashMB: 4, bufferMB: 1, idleClean: 48,
		load: workload.Config{
			Keys: 48 * (nodes + 1) / 2, ObjectBytes: 32 << 10, MinWriteBytes: 1024, MaxWriteBytes: 4096,
			Mix:        workload.Mix{Read: 0.30, Write: 0.55, Truncate: 0.05, Delete: 0.05, Sync: 0.05},
			Popularity: workload.Zipf,
		},
	}
	return s, s.workloadConfig(1993, 3000, 400*float64(nodes))
}

// TestDriveMatchesRunWorkload holds the benchmark's driver to the
// repo's: same seed, same fresh stack, same merge order — so the same
// completed, shed and notfound counts and the same elapsed virtual time,
// on one node and on three.
func TestDriveMatchesRunWorkload(t *testing.T) {
	for _, nodes := range []int{1, 3} {
		s, cfg := saturating(nodes)

		ref, err := buildStack(s, serveObserver)
		if err != nil {
			t.Fatal(err)
		}
		want, err := server.RunWorkload(ref.svc, cfg)
		if err != nil {
			t.Fatal(err)
		}

		st, err := buildStack(s, serveObserver)
		if err != nil {
			t.Fatal(err)
		}
		sessions := make([]server.RequestDoer, clients)
		models := make([]*model, clients)
		for i := range sessions {
			if sessions[i], err = st.svc.OpenSession(tenantName(i)); err != nil {
				t.Fatal(err)
			}
			models[i] = newModel()
		}
		got := drive(st.svc, cfg, 50, sessions, models)

		if got.firstErr != nil {
			t.Errorf("%d nodes: the model rejected a reply: %v", nodes, got.firstErr)
		}
		if got.offered != want.Offered || got.completed != want.Completed || got.shed != want.Shed ||
			got.notFound != want.NotFound || got.batched != want.BatchedSyncs || got.elapsed != want.Elapsed {
			t.Errorf("%d nodes: drive offered/completed/shed/notfound/batched/elapsed = %d/%d/%d/%d/%d/%v, RunWorkload = %d/%d/%d/%d/%d/%v",
				nodes, got.offered, got.completed, got.shed, got.notFound, got.batched, got.elapsed,
				want.Offered, want.Completed, want.Shed, want.NotFound, want.BatchedSyncs, want.Elapsed)
		}
		if want.Shed == 0 || want.NotFound == 0 {
			t.Errorf("%d nodes: the comparison saw %d shed and %d notfound; it needs some of each to mean anything", nodes, want.Shed, want.NotFound)
		}
		if int64(len(got.lat)) != got.completed {
			t.Errorf("%d nodes: %d latencies for %d completed requests", nodes, len(got.lat), got.completed)
		}
	}
}

// TestDriveRepeats: the simulated currency is a pure function of the
// seed — same digest twice, another digest for another seed.
func TestDriveRepeats(t *testing.T) {
	s := specs[0]
	digest := func(seed int64) uint64 {
		r, err := runRung(s, seed, s.rate, 400, serveObserver)
		if err != nil {
			t.Fatal(err)
		}
		if r.firstErr != nil {
			t.Fatal(r.firstErr)
		}
		return r.digest
	}
	a, b, c := digest(1993), digest(1993), digest(7)
	if a != b {
		t.Errorf("seed 1993 gave digests %016x and %016x", a, b)
	}
	if a == c {
		t.Errorf("seeds 1993 and 7 gave the same digest %016x", a)
	}
}
