package core

import (
	"bytes"
	"reflect"
	"testing"

	"ssmobile/internal/device"
	"ssmobile/internal/ftl"
	"ssmobile/internal/obs"
	"ssmobile/internal/sim"
	"ssmobile/internal/trace"
)

func testSolidConfig() SolidStateConfig {
	params := device.IntelFlash
	params.EraseLatencyNs = 2e6 // keep long tests fast
	return SolidStateConfig{
		DRAMBytes:   8 << 20,
		FlashBytes:  32 << 20,
		BufferBytes: 2 << 20,
		RBoxBytes:   1 << 20,
		FlashParams: &params,
	}
}

func testDiskConfig() DiskConfig {
	return DiskConfig{
		DRAMBytes: 8 << 20,
		DiskBytes: 32 << 20,
	}
}

func newSolid(t testing.TB) *SolidStateSystem {
	t.Helper()
	s, err := NewSolidState(testSolidConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newDiskSys(t testing.TB) *DiskSystem {
	t.Helper()
	d, err := NewDisk(testDiskConfig())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSolidStateDefaults(t *testing.T) {
	s := newSolid(t)
	if _, ok := s.Engine.(*ftl.FTL); !ok || !s.Engine.PersistsMapping() {
		t.Fatal("the default stack should run ftl with a persisted mapping")
	}
	if s.Flash.Banks() != 4 {
		t.Fatalf("banks %d", s.Flash.Banks())
	}
}

func TestBothSystemsBasicOps(t *testing.T) {
	for _, sys := range []System{newSolid(t), newDiskSys(t)} {
		t.Run(sys.Name(), func(t *testing.T) {
			if err := sys.Create("hello"); err != nil {
				t.Fatal(err)
			}
			data := bytes.Repeat([]byte{0x42}, 10000)
			if n, err := sys.WriteAt("hello", 0, data); err != nil || n != len(data) {
				t.Fatalf("write %d %v", n, err)
			}
			got := make([]byte, len(data))
			if n, err := sys.ReadAt("hello", 0, got); err != nil || n != len(data) {
				t.Fatalf("read %d %v", n, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("round trip mismatch")
			}
			if err := sys.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := sys.Remove("hello"); err != nil {
				t.Fatal(err)
			}
			if sys.Meter().Total() <= 0 {
				t.Fatal("no energy accounted")
			}
		})
	}
}

func TestReplayBakerTraceOnBothSystems(t *testing.T) {
	tr, err := trace.GenerateBaker(trace.DefaultBaker(3*sim.Minute, 21))
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range []System{newSolid(t), newDiskSys(t)} {
		t.Run(sys.Name(), func(t *testing.T) {
			st, err := Replay(nil, sys, tr)
			if err != nil {
				t.Fatal(err)
			}
			if st.Ops != len(tr.Ops) {
				t.Fatalf("replayed %d of %d ops", st.Ops, len(tr.Ops))
			}
			if st.ReadLatency.Count == 0 || st.WriteLatency.Count == 0 {
				t.Fatal("no latencies recorded")
			}
			if err := sys.Sync(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Two replays under one observer: each ReplayStats holds that replay's
// latencies only, as if it had run alone, while the observer's
// op_latency_ns series hold both replays' samples.
func TestReplayStatsIgnoreEarlierReplays(t *testing.T) {
	tr, err := trace.GenerateBaker(trace.DefaultBaker(3*sim.Minute, 21))
	if err != nil {
		t.Fatal(err)
	}
	alone, err := Replay(obs.New(0), newSolid(t), tr)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New(0)
	first, err := Replay(o, newDiskSys(t), tr)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Replay(o, newSolid(t), tr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(second, alone) {
		t.Fatalf("a replay after another under one observer reported\n%+v\nalone it reports\n%+v", second, alone)
	}
	snap := o.Registry.Snapshot()
	for _, c := range []struct {
		op            string
		first, second obs.Metric
	}{
		{"read", first.ReadLatency, second.ReadLatency},
		{"write", first.WriteLatency, second.WriteLatency},
		{"create", first.CreateLatency, second.CreateLatency},
		{"remove", first.RemoveLatency, second.RemoveLatency},
	} {
		m, ok := snap.Find("op_latency_ns", obs.Labels{"layer": "replay", "op": c.op})
		if !ok {
			t.Fatalf("no op_latency_ns series for %s", c.op)
		}
		if m.Count != c.first.Count+c.second.Count || m.Sum != c.first.Sum+c.second.Sum {
			t.Errorf("%s series: count %d sum %v, want %d and %v (both replays)",
				c.op, m.Count, m.Sum, c.first.Count+c.second.Count, c.first.Sum+c.second.Sum)
		}
	}
}

func TestSolidStateBeatsDiskOnColdReads(t *testing.T) {
	// The paper's central performance claim: uniform memory-speed reads.
	// Write a set of files, sync, then read them all cold: the disk pays
	// seeks, the solid-state system reads flash in place.
	coldReadTime := func(sys System) sim.Duration {
		data := bytes.Repeat([]byte{7}, 32*1024)
		for i := 0; i < 20; i++ {
			name := fileName(trace.FileID(i))
			if err := sys.Create(name); err != nil {
				t.Fatal(err)
			}
			if _, err := sys.WriteAt(name, 0, data); err != nil {
				t.Fatal(err)
			}
		}
		if err := sys.Sync(); err != nil {
			t.Fatal(err)
		}
		// Make the cache cold on the disk system by pushing unrelated
		// data through it.
		filler := bytes.Repeat([]byte{9}, 32*1024)
		for i := 100; i < 200; i++ {
			name := fileName(trace.FileID(i))
			if err := sys.Create(name); err != nil {
				t.Fatal(err)
			}
			if _, err := sys.WriteAt(name, 0, filler); err != nil {
				t.Fatal(err)
			}
		}
		if err := sys.Sync(); err != nil {
			t.Fatal(err)
		}
		start := sys.Clock().Now()
		buf := make([]byte, 32*1024)
		for i := 0; i < 20; i++ {
			if _, err := sys.ReadAt(fileName(trace.FileID(i)), 0, buf); err != nil {
				t.Fatal(err)
			}
		}
		return sys.Clock().Now().Sub(start)
	}
	solid := coldReadTime(newSolid(t))
	diskT := coldReadTime(newDiskSys(t))
	if solid >= diskT {
		t.Errorf("solid-state cold reads %v not faster than disk %v", solid, diskT)
	}
}

func TestRemountAfterPowerFailure(t *testing.T) {
	sys := newSolid(t)
	// Durable state: synced files plus the metadata checkpoint.
	data := bytes.Repeat([]byte{0x3C}, 20000)
	for i := 0; i < 8; i++ {
		name := fileName(trace.FileID(i))
		if err := sys.Create(name); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.WriteAt(name, 0, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Sync(); err != nil {
		t.Fatal(err)
	}
	// Unsynced state: written after the checkpoint, only in DRAM.
	if err := sys.Create("fresh"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.WriteAt("fresh", 0, data); err != nil {
		t.Fatal(err)
	}

	if _, err := sys.RemountAfterPowerFailure(); err == nil {
		t.Fatal("remount accepted without a power failure")
	}
	sys.DRAM.PowerFail()
	recovered, err := sys.RemountAfterPowerFailure()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(data))
	for i := 0; i < 8; i++ {
		n, err := recovered.ReadAt(fileName(trace.FileID(i)), 0, buf)
		if err != nil || n != len(data) {
			t.Fatalf("file %d after remount: n=%d err=%v", i, n, err)
		}
		if !bytes.Equal(buf, data) {
			t.Fatalf("file %d corrupted across remount", i)
		}
	}
	if recovered.FS.Exists("/fresh") {
		t.Fatal("unsynced file survived the power failure")
	}
	// The recovered system is fully operational end to end.
	if err := recovered.Create("post"); err != nil {
		t.Fatal(err)
	}
	if _, err := recovered.WriteAt("post", 0, data); err != nil {
		t.Fatal(err)
	}
	if err := recovered.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestValidationErrors(t *testing.T) {
	if _, err := NewSolidState(SolidStateConfig{DRAMBytes: 1 << 20, FlashBytes: 1024}); err == nil {
		t.Error("tiny flash accepted")
	}
	cfg := testSolidConfig()
	cfg.RBoxBytes = 8 << 20 // rbox + buffer exceed DRAM
	if _, err := NewSolidState(cfg); err == nil {
		t.Error("oversized rbox accepted")
	}
}
