package trace

import (
	"bytes"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"ssmobile/internal/sim"
)

func TestKindStringRoundTrip(t *testing.T) {
	for _, k := range []Kind{Create, Write, Read, Delete} {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("round trip of %v failed: %v %v", k, got, err)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("bogus kind parsed")
	}
}

func TestTraceSerialisationRoundTrip(t *testing.T) {
	orig := &Trace{Ops: []Op{
		{Time: 0, Kind: Create, File: 1, Size: 4096},
		{Time: 100, Kind: Write, File: 1, Offset: 0, Size: 4096},
		{Time: 250, Kind: Read, File: 1, Offset: 1024, Size: 512},
		{Time: 900, Kind: Delete, File: 1},
	}}
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Ops, orig.Ops) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got.Ops, orig.Ops)
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace(bytes.NewBufferString("not a trace line\n")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadTrace(bytes.NewBufferString("100 explode 1 0 0\n")); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestStats(t *testing.T) {
	tr := &Trace{Ops: []Op{
		{Time: 0, Kind: Create, File: 1, Size: 100},
		{Time: 10, Kind: Write, File: 1, Size: 100},
		{Time: 20, Kind: Read, File: 1, Size: 40},
		{Time: 30, Kind: Write, File: 2, Size: 60},
		{Time: 50, Kind: Delete, File: 1},
	}}
	s := tr.Stats()
	if s.Ops != 5 || s.Creates != 1 || s.Writes != 2 || s.Reads != 1 || s.Deletes != 1 {
		t.Fatalf("counts wrong: %+v", s)
	}
	if s.BytesWritten != 160 || s.BytesRead != 40 {
		t.Fatalf("bytes wrong: %+v", s)
	}
	if s.UniqueFiles != 2 {
		t.Fatalf("unique files %d", s.UniqueFiles)
	}
	if s.Duration != 50 {
		t.Fatalf("duration %v", s.Duration)
	}
}

func bakerTestConfig(seed int64) BakerConfig {
	return DefaultBaker(10*sim.Minute, seed)
}

func TestBakerDeterministic(t *testing.T) {
	a, err := GenerateBaker(bakerTestConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateBaker(bakerTestConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Ops, b.Ops) {
		t.Fatal("same seed produced different traces")
	}
	c, err := GenerateBaker(bakerTestConfig(43))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Ops, c.Ops) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestBakerTimeOrdered(t *testing.T) {
	tr, err := GenerateBaker(bakerTestConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(tr.Ops); i++ {
		if tr.Ops[i].Time < tr.Ops[i-1].Time {
			t.Fatalf("ops out of order at %d: %v after %v", i, tr.Ops[i].Time, tr.Ops[i-1].Time)
		}
	}
}

func TestBakerWellFormed(t *testing.T) {
	tr, err := GenerateBaker(bakerTestConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	created := map[FileID]bool{}
	deleted := map[FileID]bool{}
	for _, op := range tr.Ops {
		switch op.Kind {
		case Create:
			if created[op.File] {
				t.Fatalf("file %d created twice", op.File)
			}
			created[op.File] = true
		case Write, Read:
			if !created[op.File] || deleted[op.File] {
				t.Fatalf("%v on file %d outside its lifetime", op.Kind, op.File)
			}
			if op.Size <= 0 || op.Offset < 0 {
				t.Fatalf("bad op %+v", op)
			}
		case Delete:
			if !created[op.File] || deleted[op.File] {
				t.Fatalf("delete of file %d outside its lifetime", op.File)
			}
			deleted[op.File] = true
		}
	}
}

func TestBakerWorkloadShape(t *testing.T) {
	tr, err := GenerateBaker(DefaultBaker(30*sim.Minute, 7))
	if err != nil {
		t.Fatal(err)
	}
	s := tr.Stats()
	if s.Ops < 10000 {
		t.Fatalf("only %d ops in 30 minutes", s.Ops)
	}
	// The majority of created files must be deleted within the trace
	// (most files die young).
	if frac := float64(s.Deletes) / float64(s.Creates); frac < 0.5 {
		t.Errorf("only %.0f%% of files deleted; workload should kill most files", frac*100)
	}
	// Reads should be a substantial share of operations.
	if frac := float64(s.Reads) / float64(s.Ops); frac < 0.3 {
		t.Errorf("reads only %.0f%% of ops", frac*100)
	}
}

// The calibration target behind experiment E3: a large fraction of written
// bytes belong to files that are deleted within ~30 seconds of the write.
func TestBakerShortLivedBytes(t *testing.T) {
	tr, err := GenerateBaker(DefaultBaker(30*sim.Minute, 11))
	if err != nil {
		t.Fatal(err)
	}
	deleteAt := map[FileID]sim.Time{}
	for _, op := range tr.Ops {
		if op.Kind == Delete {
			deleteAt[op.File] = op.Time
		}
	}
	var total, dead30 int64
	for _, op := range tr.Ops {
		if op.Kind != Write {
			continue
		}
		total += int64(op.Size)
		if dt, ok := deleteAt[op.File]; ok && dt.Sub(op.Time) <= 30*sim.Second {
			dead30 += int64(op.Size)
		}
	}
	frac := float64(dead30) / float64(total)
	if frac < 0.30 || frac > 0.75 {
		t.Errorf("%.0f%% of written bytes die within 30s; calibration window is 30-75%%", frac*100)
	}
}

func TestBakerFileSizes(t *testing.T) {
	tr, err := GenerateBaker(bakerTestConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int
	for _, op := range tr.Ops {
		if op.Kind == Create {
			sizes = append(sizes, op.Size)
		}
	}
	if len(sizes) == 0 {
		t.Fatal("no files created")
	}
	sort.Ints(sizes)
	median := sizes[len(sizes)/2]
	if median < 1024 || median > 16*1024 {
		t.Errorf("median file size %d, want a few KB", median)
	}
	if max := sizes[len(sizes)-1]; max > 256*1024 {
		t.Errorf("file size %d exceeds bakerMaxFileSize", max)
	}
}

func TestBakerValidation(t *testing.T) {
	bad := bakerTestConfig(1)
	bad.OverwriteFrac = 1.5
	if _, err := GenerateBaker(bad); err == nil {
		t.Error("invalid OverwriteFrac accepted")
	}
	bad = bakerTestConfig(1)
	bad.Duration = 0
	if _, err := GenerateBaker(bad); err == nil {
		t.Error("zero duration accepted")
	}
}

func TestBlockWorkloadUniform(t *testing.T) {
	tr, err := GenerateBlocks(BlockConfig{Ops: 20000, Blocks: 16, ReadFrac: 0.25, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Ops) != 20000 {
		t.Fatalf("got %d ops", len(tr.Ops))
	}
	counts := make([]int, 16)
	reads := 0
	for _, op := range tr.Ops {
		b := op.Offset / 4096
		if b < 0 || b >= 16 || op.Offset%4096 != 0 {
			t.Fatalf("bad offset %d", op.Offset)
		}
		counts[b]++
		if op.Kind == Read {
			reads++
		}
	}
	for b, c := range counts {
		if c < 20000/16/2 {
			t.Errorf("block %d drew only %d ops; uniform expected ~%d", b, c, 20000/16)
		}
	}
	if frac := float64(reads) / 20000; frac < 0.2 || frac > 0.3 {
		t.Errorf("read fraction %.2f, want ~0.25", frac)
	}
}

func TestBlockWorkloadSkewed(t *testing.T) {
	tr, err := GenerateBlocks(BlockConfig{Ops: 20000, Blocks: 64, Skew: 1.4, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 64)
	for _, op := range tr.Ops {
		counts[op.Offset/blockSize]++
	}
	if counts[0] <= counts[32]*4 {
		t.Errorf("hot block %d vs mid block %d; want strong skew", counts[0], counts[32])
	}
}

func TestBlockWorkloadValidation(t *testing.T) {
	if _, err := GenerateBlocks(BlockConfig{Ops: 0, Blocks: 1}); err == nil {
		t.Error("zero ops accepted")
	}
	if _, err := GenerateBlocks(BlockConfig{Ops: 1, Blocks: 1, ReadFrac: -1}); err == nil {
		t.Error("negative ReadFrac accepted")
	}
}

// Property: serialisation round-trips arbitrary well-formed ops.
func TestSerialisationProperty(t *testing.T) {
	f := func(times []uint32, kinds []uint8, files []uint16, sizes []uint16) bool {
		n := len(times)
		for _, s := range [][]int{{len(kinds)}, {len(files)}, {len(sizes)}} {
			if s[0] < n {
				n = s[0]
			}
		}
		tr := &Trace{}
		for i := 0; i < n; i++ {
			tr.Ops = append(tr.Ops, Op{
				Time:   sim.Time(times[i]),
				Kind:   Kind(kinds[i] % 4),
				File:   FileID(files[i]),
				Offset: int64(sizes[i]) * 2,
				Size:   int(sizes[i]),
			})
		}
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			return false
		}
		got, err := ReadTrace(&buf)
		if err != nil {
			return false
		}
		if len(tr.Ops) == 0 {
			return len(got.Ops) == 0
		}
		return reflect.DeepEqual(got.Ops, tr.Ops)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
