package workload

import (
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// The pinned sequences below are the package's determinism contract: a
// change that shifts any draw (reordering forks, adding a draw to one op
// kind) breaks replayability of every recorded experiment and must show
// up here, not in a changed E12 table.
func TestGoldenZipfSequences(t *testing.T) {
	cfg := Config{Seed: 1993, OpsPerClient: 8, Keys: 16, Popularity: Zipf, ZipfSkew: 1.2}
	want := map[int][]Op{
		0: {
			{Client: 0, Seq: 0, Kind: Read, Key: 2, Offset: 17287, Size: 4096, Arrival: 92829757},
			{Client: 0, Seq: 1, Kind: Read, Key: 1, Offset: 19377, Size: 4096, Arrival: 588581242},
			{Client: 0, Seq: 2, Kind: Read, Key: 1, Offset: 7606, Size: 4096, Arrival: 686033094},
			{Client: 0, Seq: 3, Kind: Read, Key: 0, Offset: 11859, Size: 4096, Arrival: 773044064},
			{Client: 0, Seq: 4, Kind: Read, Key: 1, Offset: 20975, Size: 4096, Arrival: 823528759},
			{Client: 0, Seq: 5, Kind: Read, Key: 0, Offset: 4556, Size: 4096, Arrival: 1336439724},
			{Client: 0, Seq: 6, Kind: Sync, Key: 1, Arrival: 1422311730},
			{Client: 0, Seq: 7, Kind: Write, Key: 11, Offset: 7033, Size: 4096, Arrival: 1438154287},
		},
		1: {
			{Client: 1, Seq: 0, Kind: Read, Key: 8, Offset: 24200, Size: 4096, Arrival: 200542715},
			{Client: 1, Seq: 1, Kind: Read, Key: 0, Offset: 10611, Size: 4096, Arrival: 364842928},
			{Client: 1, Seq: 2, Kind: Read, Key: 1, Offset: 27666, Size: 4096, Arrival: 376119938},
			{Client: 1, Seq: 3, Kind: Read, Key: 0, Offset: 9951, Size: 4096, Arrival: 462035736},
			{Client: 1, Seq: 4, Kind: Read, Key: 0, Offset: 19287, Size: 4096, Arrival: 518061930},
			{Client: 1, Seq: 5, Kind: Write, Key: 4, Offset: 12771, Size: 4096, Arrival: 674043348},
			{Client: 1, Seq: 6, Kind: Write, Key: 0, Offset: 349, Size: 4096, Arrival: 1031763341},
			{Client: 1, Seq: 7, Kind: Write, Key: 0, Offset: 17966, Size: 4096, Arrival: 1048916898},
		},
	}
	for id, w := range want {
		if got := Stream(cfg, id); !reflect.DeepEqual(got, w) {
			t.Errorf("client %d stream changed:\n got %+v\nwant %+v", id, got, w)
		}
	}
}

// A client's stream must be a pure function of (seed, id): generating
// the same streams concurrently, in any order, under different
// GOMAXPROCS, yields byte-for-byte the serial sequences.
func TestDeterministicAcrossGOMAXPROCS(t *testing.T) {
	cfg := Config{Seed: 42, Clients: 8, OpsPerClient: 200, Popularity: Zipf}
	serial := make([][]Op, cfg.Clients)
	for id := range serial {
		serial[id] = Stream(cfg, id)
	}
	for _, procs := range []int{1, 2, runtime.NumCPU()} {
		old := runtime.GOMAXPROCS(procs)
		var wg sync.WaitGroup
		conc := make([][]Op, cfg.Clients)
		// Start the streams in reverse to shake out any hidden shared
		// state between generators.
		for id := cfg.Clients - 1; id >= 0; id-- {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				conc[id] = Stream(cfg, id)
			}(id)
		}
		wg.Wait()
		runtime.GOMAXPROCS(old)
		for id := range conc {
			if !reflect.DeepEqual(conc[id], serial[id]) {
				t.Fatalf("GOMAXPROCS=%d: client %d stream diverged from serial generation", procs, id)
			}
		}
	}
}

func TestSeedsIndependent(t *testing.T) {
	base := Config{OpsPerClient: 50}
	a := Stream(withSeed(base, 1), 0)
	b := Stream(withSeed(base, 1), 0)
	c := Stream(withSeed(base, 2), 0)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different streams")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical streams")
	}
	if reflect.DeepEqual(Stream(withSeed(base, 1), 0), Stream(withSeed(base, 1), 1)) {
		t.Error("different clients produced identical streams")
	}
}

func withSeed(c Config, s int64) Config { c.Seed = s; return c }

// The generated kind frequencies must converge to the configured mix.
func TestMixRatioConvergence(t *testing.T) {
	mix := Mix{Read: 0.5, Write: 0.3, Truncate: 0.05, Delete: 0.05, Sync: 0.1}
	cfg := Config{Seed: 9, OpsPerClient: 20000, Mix: mix}
	counts := map[Kind]int{}
	ops := Stream(cfg, 0)
	for _, op := range ops {
		counts[op.Kind]++
	}
	want := map[Kind]float64{Read: 0.5, Write: 0.3, Truncate: 0.05, Delete: 0.05, Sync: 0.1}
	for k, frac := range want {
		got := float64(counts[k]) / float64(len(ops))
		if math.Abs(got-frac) > 0.02 {
			t.Errorf("%v: got %.3f of ops, want %.3f ± 0.02", k, got, frac)
		}
	}
}

// Zipf popularity must put most mass on the lowest keys.
func TestPopularitySkew(t *testing.T) {
	zc := Config{Seed: 11, OpsPerClient: 20000, Keys: 64, Popularity: Zipf, ZipfSkew: 1.5}
	var low int
	for _, op := range Stream(zc, 0) {
		if op.Key < 4 {
			low++
		}
	}
	if frac := float64(low) / 20000; frac < 0.5 {
		t.Errorf("zipf(1.5): keys 0-3 got %.3f of accesses, want > 0.5", frac)
	}
}

// Open-loop arrivals must be strictly increasing and average out to the
// configured rate; closed-loop ops must carry think times instead.
func TestArrivalModels(t *testing.T) {
	oc := Config{Seed: 5, OpsPerClient: 10000, RatePerClient: 20, Arrival: OpenLoop}
	ops := Stream(oc, 0)
	var last int64 = -1
	for _, op := range ops {
		if int64(op.Arrival) <= last {
			t.Fatalf("op %d: arrival %d not after %d", op.Seq, op.Arrival, last)
		}
		last = int64(op.Arrival)
		if op.Think != 0 {
			t.Fatalf("open-loop op %d has think time", op.Seq)
		}
	}
	span := ops[len(ops)-1].Arrival.Seconds()
	rate := float64(len(ops)) / span
	if math.Abs(rate-20) > 1 {
		t.Errorf("open-loop rate %.2f op/s, want 20 ± 1", rate)
	}

	cc := Config{Seed: 5, OpsPerClient: 1000, Arrival: ClosedLoop, ThinkTime: 50_000_000}
	var meanThink float64
	for _, op := range Stream(cc, 0) {
		if op.Arrival != 0 {
			t.Fatalf("closed-loop op %d has absolute arrival", op.Seq)
		}
		meanThink += float64(op.Think)
	}
	meanThink /= 1000
	if math.Abs(meanThink-50e6) > 10e6 {
		t.Errorf("closed-loop mean think %.0fns, want 50ms ± 10ms", meanThink)
	}
}

// The kind mix must not perturb key or address draws: changing only the
// mix keeps the (key, offset) trajectory identical.
func TestMixIndependentOfAddresses(t *testing.T) {
	a := Config{Seed: 3, OpsPerClient: 500, Mix: Mix{Read: 1}}
	b := Config{Seed: 3, OpsPerClient: 500, Mix: Mix{Write: 1}}
	sa, sb := Stream(a, 0), Stream(b, 0)
	for i := range sa {
		if sa[i].Key != sb[i].Key {
			t.Fatalf("op %d: key diverged (%d vs %d) when only the mix changed", i, sa[i].Key, sb[i].Key)
		}
		if sa[i].Offset != sb[i].Offset {
			t.Fatalf("op %d: offset diverged when only the mix changed", i)
		}
	}
}
