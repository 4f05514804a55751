package diskfs

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"ssmobile/internal/bufcache"
	"ssmobile/internal/device"
	"ssmobile/internal/disk"
	"ssmobile/internal/dram"
	"ssmobile/internal/sim"
)

type rig struct {
	clock *sim.Clock
	disk  *disk.Device
	cache *bufcache.Cache
	fs    *FS
}

func newRig(t testing.TB, diskBytes int64) *rig {
	t.Helper()
	clock := sim.NewClock()
	meter := sim.NewEnergyMeter()
	dr, err := dram.New(dram.Config{CapacityBytes: 2 << 20, Params: device.NECDram}, clock, meter)
	if err != nil {
		t.Fatal(err)
	}
	dk, err := disk.New(disk.Config{CapacityBytes: diskBytes, Params: device.KittyHawk}, clock, meter)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := bufcache.New(bufcache.Config{DRAMBytes: 1 << 20}, clock, dr, dk)
	if err != nil {
		t.Fatal(err)
	}
	f, err := format(cache, 4)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{clock: clock, disk: dk, cache: cache, fs: f}
}

func TestCreateExistsRemove(t *testing.T) {
	r := newRig(t, 8<<20)
	if err := r.fs.Create("a"); err != nil {
		t.Fatal(err)
	}
	if !r.fs.Exists("a") {
		t.Fatal("created file missing")
	}
	if err := r.fs.Create("a"); !errors.Is(err, ErrExist) {
		t.Fatalf("duplicate create: %v", err)
	}
	if err := r.fs.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if r.fs.Exists("a") {
		t.Fatal("removed file exists")
	}
	if err := r.fs.Remove("a"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("double remove: %v", err)
	}
}

func TestMetadataWritesAreSynchronous(t *testing.T) {
	r := newRig(t, 8<<20)
	before := r.disk.Stats().Writes
	if err := r.fs.Create("f"); err != nil {
		t.Fatal(err)
	}
	if r.disk.Stats().Writes != before+1 {
		t.Fatal("create did not write metadata synchronously")
	}
}

func TestSmallFileRoundTrip(t *testing.T) {
	r := newRig(t, 8<<20)
	if err := r.fs.Create("f"); err != nil {
		t.Fatal(err)
	}
	data := []byte("conventional storage organisation")
	if n, err := r.fs.WriteAt("f", 0, data); err != nil || n != len(data) {
		t.Fatalf("write: %d %v", n, err)
	}
	got := make([]byte, len(data))
	if n, err := r.fs.ReadAt("f", 0, got); err != nil || n != len(data) {
		t.Fatalf("read: %d %v", n, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
	if size, _ := r.fs.Size("f"); size != int64(len(data)) {
		t.Fatalf("size %d", size)
	}
}

func TestLargeFileUsesIndirectBlocks(t *testing.T) {
	r := newRig(t, 16<<20)
	if err := r.fs.Create("big"); err != nil {
		t.Fatal(err)
	}
	// 12 direct cover 48KB at 4KB blocks; write 300KB to reach the
	// indirect range, plus a probe in the double-indirect range.
	data := make([]byte, 300*1024)
	for i := range data {
		data[i] = byte(i / 4096)
	}
	if _, err := r.fs.WriteAt("big", 0, data); err != nil {
		t.Fatal(err)
	}
	// Double-indirect starts at (12+1024)*4096 with 8-byte pointers...
	// with 4KB blocks: ptrs/block = 512, so at (12+512)*4096 = 2096KB.
	probeOff := int64(12+512)*4096 + 17
	if _, err := r.fs.WriteAt("big", probeOff, []byte("deep")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4)
	if n, err := r.fs.ReadAt("big", probeOff, got); err != nil || n != 4 {
		t.Fatalf("deep read: %d %v", n, err)
	}
	if string(got) != "deep" {
		t.Fatalf("deep read %q", got)
	}
	// Verify earlier data intact.
	chunk := make([]byte, 4096)
	if _, err := r.fs.ReadAt("big", 100*1024, chunk); err != nil {
		t.Fatal(err)
	}
	if chunk[0] != byte(100*1024/4096) {
		t.Fatal("indirect-range data corrupted")
	}
}

func TestHolesReadZero(t *testing.T) {
	r := newRig(t, 8<<20)
	if err := r.fs.Create("sparse"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.fs.WriteAt("sparse", 20*4096, []byte("x")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	if n, err := r.fs.ReadAt("sparse", 10*4096, buf); err != nil || n != 8 {
		t.Fatalf("hole read: %d %v", n, err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("hole not zero")
		}
	}
}

func TestRemoveFreesBlocks(t *testing.T) {
	r := newRig(t, 8<<20)
	if err := r.fs.Create("f"); err != nil {
		t.Fatal(err)
	}
	free0 := r.fs.FreeBlocks()
	if _, err := r.fs.WriteAt("f", 0, make([]byte, 100*1024)); err != nil {
		t.Fatal(err)
	}
	if r.fs.FreeBlocks() >= free0 {
		t.Fatal("write allocated nothing")
	}
	if err := r.fs.Remove("f"); err != nil {
		t.Fatal(err)
	}
	if r.fs.FreeBlocks() != free0 {
		t.Fatalf("blocks leaked: %d vs %d", r.fs.FreeBlocks(), free0)
	}
}

func TestReuseAfterRemoveIsClean(t *testing.T) {
	r := newRig(t, 8<<20)
	if err := r.fs.Create("f"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.fs.WriteAt("f", 0, bytes.Repeat([]byte{0xFF}, 8192)); err != nil {
		t.Fatal(err)
	}
	if err := r.fs.Remove("f"); err != nil {
		t.Fatal(err)
	}
	if err := r.fs.Create("g"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.fs.WriteAt("g", 0, []byte("new")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3)
	if _, err := r.fs.ReadAt("g", 0, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "new" {
		t.Fatalf("reused block carries stale data: %q", buf)
	}
}

func TestDiskLatencyDominatesColdReads(t *testing.T) {
	r := newRig(t, 8<<20)
	if err := r.fs.Create("f"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.fs.WriteAt("f", 0, make([]byte, 64*1024)); err != nil {
		t.Fatal(err)
	}
	if err := r.fs.Sync(); err != nil {
		t.Fatal(err)
	}
	// Warm read (cached).
	start := r.clock.Now()
	if _, err := r.fs.ReadAt("f", 0, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	warm := r.clock.Now().Sub(start)
	if warm > sim.Millisecond {
		t.Fatalf("warm read %v, want DRAM-speed", warm)
	}
}

func TestRemoveDoubleIndirectFile(t *testing.T) {
	r := newRig(t, 32<<20)
	if err := r.fs.Create("huge"); err != nil {
		t.Fatal(err)
	}
	// Touch direct, indirect and double-indirect ranges sparsely.
	offsets := []int64{0, 20 * 4096, (12 + 600) * 4096, (12 + 512 + 700) * 4096}
	for _, off := range offsets {
		if _, err := r.fs.WriteAt("huge", off, []byte("block")); err != nil {
			t.Fatal(err)
		}
	}
	free0 := r.fs.FreeBlocks()
	if err := r.fs.Remove("huge"); err != nil {
		t.Fatal(err)
	}
	// All data blocks plus pointer blocks must come back.
	if r.fs.FreeBlocks() <= free0 {
		t.Fatalf("remove freed nothing: %d vs %d", r.fs.FreeBlocks(), free0)
	}
	// Create a new file reusing the space; its deep range must read zero.
	if err := r.fs.Create("fresh"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.fs.WriteAt("fresh", (12+512+700)*4096, []byte("x")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := r.fs.ReadAt("fresh", (12+600)*4096, buf); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("stale pointer chain leaked across remove")
		}
	}
}

func TestFileTooLarge(t *testing.T) {
	r := newRig(t, 8<<20)
	if err := r.fs.Create("f"); err != nil {
		t.Fatal(err)
	}
	// Past direct + indirect + double-indirect capacity.
	max := int64(12+512+512*512) * 4096
	if _, err := r.fs.WriteAt("f", max+4096, []byte("x")); !errors.Is(err, ErrTooBig) {
		t.Fatalf("over-large write: %v", err)
	}
}

func TestOutOfSpace(t *testing.T) {
	r := newRig(t, 2<<20) // tiny disk
	if err := r.fs.Create("f"); err != nil {
		t.Fatal(err)
	}
	_, err := r.fs.WriteAt("f", 0, make([]byte, 4<<20))
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("overfull write: %v", err)
	}
}

func TestOutOfInodes(t *testing.T) {
	clock := sim.NewClock()
	meter := sim.NewEnergyMeter()
	dr, err := dram.New(dram.Config{CapacityBytes: 2 << 20, Params: device.NECDram}, clock, meter)
	if err != nil {
		t.Fatal(err)
	}
	dk, err := disk.New(disk.Config{CapacityBytes: 8 << 20, Params: device.KittyHawk}, clock, meter)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := bufcache.New(bufcache.Config{DRAMBytes: 1 << 20}, clock, dr, dk)
	if err != nil {
		t.Fatal(err)
	}
	f, err := format(cache, 1) // 32 inodes
	if err != nil {
		t.Fatal(err)
	}
	var lastErr error
	for i := 0; i < 100; i++ {
		if lastErr = f.Create(string(rune('a' + i%26))); lastErr != nil {
			break
		}
		lastErr = f.Create(string(rune('a'+i%26)) + "x" + string(rune('0'+i/26)))
		if lastErr != nil {
			break
		}
	}
	if !errors.Is(lastErr, ErrNoInodes) && !errors.Is(lastErr, ErrExist) {
		t.Fatalf("inode exhaustion: %v", lastErr)
	}
}

func TestBadArgs(t *testing.T) {
	r := newRig(t, 8<<20)
	if err := r.fs.Create("f"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.fs.WriteAt("f", -1, []byte("x")); !errors.Is(err, ErrBadArg) {
		t.Fatalf("negative write offset: %v", err)
	}
	if _, err := r.fs.ReadAt("f", -1, make([]byte, 1)); !errors.Is(err, ErrBadArg) {
		t.Fatalf("negative read offset: %v", err)
	}
	if _, err := r.fs.WriteAt("nope", 0, []byte("x")); !errors.Is(err, ErrNotExist) {
		t.Fatalf("write to missing: %v", err)
	}
	if _, err := r.fs.Size("nope"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("size of missing: %v", err)
	}
	if r.fs.BlockBytes() != 4096 {
		t.Fatal("BlockBytes wrong")
	}
}

func TestTickFlushesAgedData(t *testing.T) {
	r := newRig(t, 8<<20)
	if err := r.fs.Create("f"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.fs.WriteAt("f", 0, bytes.Repeat([]byte{0xAB}, 4096)); err != nil {
		t.Fatal(err)
	}
	writesBefore := r.disk.Stats().Writes
	r.clock.Advance(31 * sim.Second)
	if err := r.fs.Tick(); err != nil {
		t.Fatal(err)
	}
	if r.disk.Stats().Writes <= writesBefore {
		t.Fatal("tick flushed nothing after the write-back delay")
	}
}

// Property: the disk FS matches a map model under random writes/reads.
func TestDiskFSModelProperty(t *testing.T) {
	f := func(writes []struct {
		Off  uint16
		Data []byte
	}) bool {
		r := newRig(t, 8<<20)
		if err := r.fs.Create("f"); err != nil {
			return false
		}
		model := []byte{}
		for _, w := range writes {
			data := w.Data
			if len(data) > 5000 {
				data = data[:5000]
			}
			off := int64(w.Off) % 65536
			if _, err := r.fs.WriteAt("f", off, data); err != nil {
				return false
			}
			if need := off + int64(len(data)); int64(len(model)) < need {
				grown := make([]byte, need)
				copy(grown, model)
				model = grown
			}
			copy(model[off:], data)
		}
		got := make([]byte, len(model))
		n, err := r.fs.ReadAt("f", 0, got)
		if err != nil || n != len(model) {
			return false
		}
		return bytes.Equal(got, model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
