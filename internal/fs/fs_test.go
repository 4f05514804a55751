package fs

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"ssmobile/internal/device"
	"ssmobile/internal/dram"
	"ssmobile/internal/flash"
	"ssmobile/internal/ftl"
	"ssmobile/internal/obs"
	"ssmobile/internal/sim"
	"ssmobile/internal/storman"
	"ssmobile/internal/vm"
)

type rig struct {
	clock *sim.Clock
	meter *sim.EnergyMeter
	dram  *dram.Device
	flash *flash.Device
	fl    *ftl.FTL
	sm    *storman.Manager
	fs    *FS
}

func fsConfig() Config {
	return Config{RBoxBase: 0, RBoxBytes: 256 * 1024, SnapshotEvery: 64}
}

// newParts builds the device stack without the FS (for recovery tests).
func newParts(t testing.TB) *rig { return newPartsObs(t, nil) }

// newPartsObs is newParts with the flash device reporting to o, for tests
// that read what the file system's activity was charged to.
func newPartsObs(t testing.TB, o *obs.Observer) *rig {
	t.Helper()
	clock := sim.NewClock()
	meter := sim.NewEnergyMeter()
	dr, err := dram.New(dram.Config{CapacityBytes: 8 << 20, Params: device.NECDram}, clock, meter)
	if err != nil {
		t.Fatal(err)
	}
	params := device.IntelFlash
	params.EraseLatencyNs = 1e6
	fd, err := flash.New(flash.Config{Banks: 2, BlocksPerBank: 128, BlockBytes: 16 * 1024, Params: params, Obs: o}, clock, meter)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := ftl.New(fd, clock, ftl.Config{
		PageBytes: 4096, ReserveBlocks: 3,
		Policy: ftl.PolicyCostBenefit, HotCold: true, BackgroundErase: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sm, err := storman.New(storman.Config{
		BlockBytes: 4096,
		DRAMBase:   1 << 20, DRAMBytes: 2 << 20,
		WriteBackDelay: 30 * sim.Second,
	}, clock, dr, fl)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{clock: clock, meter: meter, dram: dr, flash: fd, fl: fl, sm: sm}
}

func newFS(t testing.TB) *rig {
	t.Helper()
	r := newParts(t)
	f, err := Mkfs(fsConfig(), r.clock, r.sm, r.dram)
	if err != nil {
		t.Fatal(err)
	}
	r.fs = f
	return r
}

func TestCreateStatRemove(t *testing.T) {
	r := newFS(t)
	if err := r.fs.Create("/a.txt"); err != nil {
		t.Fatal(err)
	}
	info, err := r.fs.Stat("/a.txt")
	if err != nil {
		t.Fatal(err)
	}
	if info.Kind != KindFile || info.Size != 0 || info.Name != "a.txt" {
		t.Fatalf("info %+v", info)
	}
	if err := r.fs.Create("/a.txt"); !errors.Is(err, ErrExist) {
		t.Fatalf("duplicate create: %v", err)
	}
	if err := r.fs.Remove("/a.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.fs.Stat("/a.txt"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("stat after remove: %v", err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	r := newFS(t)
	if err := r.fs.Create("/f"); err != nil {
		t.Fatal(err)
	}
	// Spans several blocks with an odd size.
	data := make([]byte, 3*4096+123)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if n, err := r.fs.WriteAt("/f", 0, data); err != nil || n != len(data) {
		t.Fatalf("write n=%d err=%v", n, err)
	}
	got, err := r.fs.ReadFile("/f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
	info, _ := r.fs.Stat("/f")
	if info.Size != int64(len(data)) {
		t.Fatalf("size %d", info.Size)
	}
}

func TestPartialOverwriteWithinBlock(t *testing.T) {
	r := newFS(t)
	if err := r.fs.WriteFile("/f", bytes.Repeat([]byte{0xAA}, 1000)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.fs.WriteAt("/f", 100, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	got, err := r.fs.ReadFile("/f")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1000 {
		t.Fatalf("len %d", len(got))
	}
	if got[99] != 0xAA || got[100] != 1 || got[102] != 3 || got[103] != 0xAA {
		t.Fatal("partial overwrite wrong")
	}
}

func TestSparseWriteReadsZeros(t *testing.T) {
	r := newFS(t)
	if err := r.fs.Create("/sparse"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.fs.WriteAt("/sparse", 10*4096, []byte("tail")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, err := r.fs.ReadAt("/sparse", 5*4096, buf)
	if err != nil || n != 16 {
		t.Fatalf("hole read n=%d err=%v", n, err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("hole not zero")
		}
	}
	// Unaligned write into a fresh block past old content must zero-fill
	// the gap before the write offset.
	if _, err := r.fs.WriteAt("/sparse", 11*4096+100, []byte("x")); err != nil {
		t.Fatal(err)
	}
	n, err = r.fs.ReadAt("/sparse", 11*4096, buf)
	if err != nil || n != 16 {
		t.Fatalf("gap read n=%d err=%v", n, err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("gap before unaligned write not zero")
		}
	}
}

func TestAppend(t *testing.T) {
	r := newFS(t)
	if err := r.fs.Create("/log"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := r.fs.Append("/log", []byte("entry;")); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := r.fs.ReadFile("/log")
	if string(got) != "entry;entry;entry;entry;entry;" {
		t.Fatalf("append result %q", got)
	}
}

func TestTruncate(t *testing.T) {
	r := newFS(t)
	data := bytes.Repeat([]byte{0xEE}, 2*4096+500)
	if err := r.fs.WriteFile("/t", data); err != nil {
		t.Fatal(err)
	}
	if err := r.fs.Truncate("/t", 4096+100); err != nil {
		t.Fatal(err)
	}
	got, err := r.fs.ReadFile("/t")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4096+100 {
		t.Fatalf("len after truncate %d", len(got))
	}
	// Growing back must expose zeros, not stale bytes.
	if err := r.fs.Truncate("/t", 2*4096); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 100)
	if _, err := r.fs.ReadAt("/t", 4096+200, buf); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("stale bytes exposed after truncate+grow")
		}
	}
}

// A file's length can be far past its blocks (growing is free), so a
// shrink must cost the blocks the file has, not the index range of the
// old length: 2^50 bytes is 2^38 block indexes, which the pre-fix loop
// walked one map miss at a time.
func TestShrinkAfterSparseGrowIsBounded(t *testing.T) {
	r := newFS(t)
	data := bytes.Repeat([]byte{0xEE}, 2*4096+500)
	if err := r.fs.WriteFile("/t", data); err != nil {
		t.Fatal(err)
	}
	if err := r.fs.Truncate("/t", 1<<50); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- r.fs.Truncate("/t", 4096+100) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shrink is walking the old length's index range")
	}
	got, err := r.fs.ReadFile("/t")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[:4096+100]) {
		t.Fatalf("kept prefix damaged: %d bytes", len(got))
	}
	info, err := r.fs.Stat("/t")
	if err != nil {
		t.Fatal(err)
	}
	if n := r.sm.BlockSize(storman.Key{Object: info.Ino, Block: 2}); n != 0 {
		t.Fatalf("block past the new end survived the shrink (%d bytes)", n)
	}
}

// An extent whose end overflows int64 is an error, not a write parked
// under wrapped block indexes (the second one negative) that no read
// reaches while the file's size stays 0.
func TestOverflowingExtentRejected(t *testing.T) {
	r := newFS(t)
	if err := r.fs.Create("/o"); err != nil {
		t.Fatal(err)
	}
	if n, err := r.fs.WriteAt("/o", math.MaxInt64-5, make([]byte, 10)); !errors.Is(err, ErrBadPath) || n != 0 {
		t.Fatalf("overflowing write: n=%d err=%v, want ErrBadPath", n, err)
	}
	if _, err := r.fs.ReadAt("/o", math.MaxInt64-5, make([]byte, 10)); !errors.Is(err, ErrBadPath) {
		t.Fatalf("overflowing read: err=%v, want ErrBadPath", err)
	}
	if info, err := r.fs.Stat("/o"); err != nil || info.Size != 0 {
		t.Fatalf("size %d err %v after a refused write", info.Size, err)
	}
	if objs := r.sm.Objects(); len(objs) != 0 {
		t.Fatalf("refused write left blocks behind: objects %v", objs)
	}
}

func TestDirectories(t *testing.T) {
	r := newFS(t)
	if err := r.fs.MkdirAll("/usr/local/bin"); err != nil {
		t.Fatal(err)
	}
	if err := r.fs.Create("/usr/local/bin/prog"); err != nil {
		t.Fatal(err)
	}
	infos, err := r.fs.ReadDir("/usr/local")
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != "bin" || infos[0].Kind != KindDir {
		t.Fatalf("readdir %+v", infos)
	}
	if err := r.fs.Remove("/usr/local"); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("remove non-empty: %v", err)
	}
	if _, err := r.fs.ReadDir("/usr/local/bin/prog"); !errors.Is(err, ErrNotDir) {
		t.Fatalf("readdir of file: %v", err)
	}
	if _, err := r.fs.WriteAt("/usr", 0, []byte("x")); !errors.Is(err, ErrIsDir) {
		t.Fatalf("write to dir: %v", err)
	}
}

func TestRename(t *testing.T) {
	r := newFS(t)
	if err := r.fs.MkdirAll("/a/b"); err != nil {
		t.Fatal(err)
	}
	if err := r.fs.WriteFile("/a/f", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := r.fs.Rename("/a/f", "/a/b/g"); err != nil {
		t.Fatal(err)
	}
	if r.fs.Exists("/a/f") {
		t.Fatal("old path still exists")
	}
	got, err := r.fs.ReadFile("/a/b/g")
	if err != nil || string(got) != "payload" {
		t.Fatalf("after rename: %q %v", got, err)
	}
	if err := r.fs.Rename("/a/b/g", "/a/b"); !errors.Is(err, ErrExist) {
		t.Fatalf("rename over existing: %v", err)
	}
	if err := r.fs.Rename("/missing", "/x"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("rename missing: %v", err)
	}
}

func TestBadPaths(t *testing.T) {
	r := newFS(t)
	for _, p := range []string{"", "relative", "/a/../b"} {
		if err := r.fs.Create(p); !errors.Is(err, ErrBadPath) {
			t.Errorf("Create(%q): %v", p, err)
		}
	}
	if _, err := r.fs.Stat("//"); err != nil {
		t.Errorf("Stat(//) should resolve to root: %v", err)
	}
}

func TestRemoveFreesStorage(t *testing.T) {
	r := newFS(t)
	if err := r.fs.WriteFile("/big", make([]byte, 64*1024)); err != nil {
		t.Fatal(err)
	}
	if err := r.fs.Sync(); err != nil {
		t.Fatal(err)
	}
	freeBefore := r.sm.FlashPagesFree()
	if err := r.fs.Remove("/big"); err != nil {
		t.Fatal(err)
	}
	if r.sm.FlashPagesFree() <= freeBefore {
		t.Fatal("remove did not free flash pages")
	}
}

func TestDeleteAbsorbedBeforeWriteback(t *testing.T) {
	// The paper's §3.3: short-lived files buffered in DRAM never cost
	// flash writes.
	r := newFS(t)
	for i := 0; i < 20; i++ {
		if err := r.fs.WriteFile("/tmpfile", make([]byte, 8192)); err != nil {
			t.Fatal(err)
		}
		if err := r.fs.Remove("/tmpfile"); err != nil {
			t.Fatal(err)
		}
	}
	s := r.sm.Stats()
	if s.FlushedBytes != 0 {
		t.Fatalf("short-lived files cost %d flash bytes", s.FlushedBytes)
	}
	if s.DeleteAbsorbedBytes == 0 {
		t.Fatal("no delete absorption recorded")
	}
}

func TestCrashRecoveryFromRecoveryBox(t *testing.T) {
	r := newFS(t)
	if err := r.fs.MkdirAll("/home/user"); err != nil {
		t.Fatal(err)
	}
	if err := r.fs.WriteFile("/home/user/doc", []byte("important words")); err != nil {
		t.Fatal(err)
	}
	if err := r.fs.Rename("/home/user/doc", "/home/user/doc2"); err != nil {
		t.Fatal(err)
	}

	// OS crash: the FS object evaporates, DRAM (and storman) survive.
	recovered, err := RecoverAfterCrash(fsConfig(), r.clock, r.sm, r.dram)
	if err != nil {
		t.Fatal(err)
	}
	got, err := recovered.ReadFile("/home/user/doc2")
	if err != nil || string(got) != "important words" {
		t.Fatalf("after crash recovery: %q %v", got, err)
	}
	if recovered.Exists("/home/user/doc") {
		t.Fatal("pre-rename name resurrected")
	}
	// The recovered FS is fully operational.
	if err := recovered.WriteFile("/home/user/more", []byte("x")); err != nil {
		t.Fatal(err)
	}
}

func TestCrashRecoveryReplaysManyJournalRecords(t *testing.T) {
	r := newFS(t)
	// More mutations than SnapshotEvery to exercise snapshot + journal.
	for i := 0; i < 200; i++ {
		name := string(rune('a'+i%26)) + string(rune('0'+i%10))
		path := "/" + name
		if !r.fs.Exists(path) {
			if err := r.fs.Create(path); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := r.fs.Append(path, []byte("data")); err != nil {
			t.Fatal(err)
		}
	}
	want := r.fs.NumInodes()
	recovered, err := RecoverAfterCrash(fsConfig(), r.clock, r.sm, r.dram)
	if err != nil {
		t.Fatal(err)
	}
	if recovered.NumInodes() != want {
		t.Fatalf("recovered %d inodes, want %d", recovered.NumInodes(), want)
	}
}

func TestCorruptRecoveryBoxDetected(t *testing.T) {
	r := newFS(t)
	if err := r.fs.Create("/x"); err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the snapshot area.
	if _, err := r.dram.Write(int64(rboxHeader)+5, []byte{0xFF}); err != nil {
		t.Fatal(err)
	}
	if _, err := RecoverAfterCrash(fsConfig(), r.clock, r.sm, r.dram); !errors.Is(err, ErrCorruptRBox) {
		t.Fatalf("corrupt rbox: %v", err)
	}
}

func TestPowerFailureRecovery(t *testing.T) {
	r := newFS(t)
	if err := r.fs.MkdirAll("/docs"); err != nil {
		t.Fatal(err)
	}
	if err := r.fs.WriteFile("/docs/stable", []byte("synced to flash")); err != nil {
		t.Fatal(err)
	}
	if err := r.fs.Sync(); err != nil {
		t.Fatal(err)
	}
	// Written after the sync: lives only in DRAM.
	if err := r.fs.WriteFile("/docs/fresh", []byte("never flushed")); err != nil {
		t.Fatal(err)
	}

	r.dram.PowerFail()
	recovered, lost, err := RecoverAfterPowerFailure(fsConfig(), r.clock, r.sm, r.dram)
	if err != nil {
		t.Fatal(err)
	}
	if lost == 0 {
		t.Fatal("no loss reported though fresh data was unflushed")
	}
	got, err := recovered.ReadFile("/docs/stable")
	if err != nil || string(got) != "synced to flash" {
		t.Fatalf("stable file after power failure: %q %v", got, err)
	}
	if recovered.Exists("/docs/fresh") {
		t.Fatal("unflushed file survived power failure")
	}
	// FS remains usable and syncable.
	if err := recovered.WriteFile("/docs/new", []byte("post-recovery")); err != nil {
		t.Fatal(err)
	}
	if err := recovered.Sync(); err != nil {
		t.Fatal(err)
	}
}

// TestNameLongerThanARecordHoldsIsRefused: a journal record holds a
// name's length in 16 bits. A longer name used to be journalled with its
// length wrapped and all of its bytes, which no recovery could decode; it
// is refused before anything is journalled, so a file system that saw the
// attempt recovers from a crash and from a power failure, and the longest
// name a record does hold survives both.
func TestNameLongerThanARecordHoldsIsRefused(t *testing.T) {
	r := newFS(t)
	if err := r.fs.WriteFile("/ok", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := r.fs.Sync(); err != nil {
		t.Fatal(err)
	}
	longest := "/" + strings.Repeat("n", maxNameBytes)
	long := longest + "n"
	for what, err := range map[string]error{
		"create": r.fs.WriteFile(long, []byte("x")),
		"link":   r.fs.Link("/ok", long),
		"rename": r.fs.Rename("/ok", long),
	} {
		if !errors.Is(err, ErrBadPath) {
			t.Errorf("%s under a name of %d bytes: %v, want ErrBadPath", what, len(long)-1, err)
		}
	}
	if err := r.fs.Link("/ok", longest); err != nil {
		t.Fatalf("link under a name of %d bytes: %v", maxNameBytes, err)
	}
	f, err := RecoverAfterCrash(fsConfig(), r.clock, r.sm, r.dram)
	if err != nil {
		t.Fatalf("crash recovery: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	r.dram.PowerFail()
	if f, _, err = RecoverAfterPowerFailure(fsConfig(), r.clock, r.sm, r.dram); err != nil {
		t.Fatalf("power-failure recovery: %v", err)
	}
	if !f.Exists("/ok") || !f.Exists(longest) || f.NumInodes() != 2 {
		t.Fatalf("after both recoveries: /ok %v, the longest name %v, %d inodes", f.Exists("/ok"), f.Exists(longest), f.NumInodes())
	}
}

func TestPowerFailureWithoutAnyCheckpoint(t *testing.T) {
	r := newFS(t)
	if err := r.fs.WriteFile("/gone", []byte("data")); err != nil {
		t.Fatal(err)
	}
	r.dram.PowerFail()
	recovered, _, err := RecoverAfterPowerFailure(fsConfig(), r.clock, r.sm, r.dram)
	if err != nil {
		t.Fatal(err)
	}
	if recovered.Exists("/gone") {
		t.Fatal("file survived with no checkpoint")
	}
	if err := recovered.WriteFile("/fresh", []byte("ok")); err != nil {
		t.Fatal(err)
	}
}

func TestMapFileReadsInPlace(t *testing.T) {
	r := newFS(t)
	content := bytes.Repeat([]byte{0x5A}, 2*4096)
	if err := r.fs.WriteFile("/lib", content); err != nil {
		t.Fatal(err)
	}
	if err := r.fs.Sync(); err != nil { // push to flash
		t.Fatal(err)
	}
	v, err := vm.New(vm.Config{PageBytes: 4096, DRAMBase: 4 << 20, DRAMBytes: 1 << 20}, r.clock, r.dram, r.flash)
	if err != nil {
		t.Fatal(err)
	}
	s := v.NewSpace()
	n, err := r.fs.MapFile(v, s, 0x100000, "/lib", vm.PermRead)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2*4096 {
		t.Fatalf("mapped %d", n)
	}
	buf := make([]byte, 64)
	if err := v.Read(s, 0x100000+4090, buf); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0x5A {
			t.Fatal("mapped read wrong")
		}
	}
	if v.Stats().FramesInUse != 0 {
		t.Fatal("mapping a file consumed DRAM frames on read")
	}
}

func TestMapFileCopyOnWritePrivate(t *testing.T) {
	r := newFS(t)
	if err := r.fs.WriteFile("/data", bytes.Repeat([]byte{3}, 4096)); err != nil {
		t.Fatal(err)
	}
	v, err := vm.New(vm.Config{PageBytes: 4096, DRAMBase: 4 << 20, DRAMBytes: 1 << 20}, r.clock, r.dram, r.flash)
	if err != nil {
		t.Fatal(err)
	}
	s := v.NewSpace()
	if _, err := r.fs.MapFile(v, s, 0x200000, "/data", vm.PermRead|vm.PermWrite); err != nil {
		t.Fatal(err)
	}
	if err := v.Write(s, 0x200000, []byte{9}); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 2)
	if err := v.Read(s, 0x200000, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 9 || got[1] != 3 {
		t.Fatalf("mapped cow read %v", got)
	}
	// Private mapping: the file itself is unchanged.
	data, _ := r.fs.ReadFile("/data")
	if data[0] != 3 {
		t.Fatal("private mapping modified the file")
	}
}

func TestMapFilePastEOFReadsZero(t *testing.T) {
	r := newFS(t)
	if err := r.fs.WriteFile("/short", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	v, err := vm.New(vm.Config{PageBytes: 4096, DRAMBase: 4 << 20, DRAMBytes: 1 << 20}, r.clock, r.dram, r.flash)
	if err != nil {
		t.Fatal(err)
	}
	s := v.NewSpace()
	if _, err := r.fs.MapFile(v, s, 0, "/short", vm.PermRead); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	if err := v.Read(s, 0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, []byte{'a', 'b', 'c', 0, 0, 0, 0, 0}) {
		t.Fatalf("eof zero fill %q", buf)
	}
}

func TestHardLinks(t *testing.T) {
	r := newFS(t)
	if err := r.fs.WriteFile("/orig", []byte("shared inode")); err != nil {
		t.Fatal(err)
	}
	if err := r.fs.MkdirAll("/d"); err != nil {
		t.Fatal(err)
	}
	if err := r.fs.Link("/orig", "/d/alias"); err != nil {
		t.Fatal(err)
	}
	infoA, _ := r.fs.Stat("/orig")
	infoB, _ := r.fs.Stat("/d/alias")
	if infoA.Ino != infoB.Ino {
		t.Fatal("link made a different inode")
	}
	if infoA.Nlink != 2 {
		t.Fatalf("nlink %d", infoA.Nlink)
	}
	// Writes through one name are visible through the other.
	if _, err := r.fs.WriteAt("/d/alias", 0, []byte("SHARED")); err != nil {
		t.Fatal(err)
	}
	got, _ := r.fs.ReadFile("/orig")
	if string(got) != "SHARED inode" {
		t.Fatalf("through-link read %q", got)
	}
	// Removing one name keeps the data alive.
	if err := r.fs.Remove("/orig"); err != nil {
		t.Fatal(err)
	}
	got, err := r.fs.ReadFile("/d/alias")
	if err != nil || string(got) != "SHARED inode" {
		t.Fatalf("after first unlink: %q %v", got, err)
	}
	if info, _ := r.fs.Stat("/d/alias"); info.Nlink != 1 {
		t.Fatalf("nlink after unlink %d", info.Nlink)
	}
	// Removing the last name frees storage.
	if err := r.fs.Remove("/d/alias"); err != nil {
		t.Fatal(err)
	}
	if len(r.sm.Objects()) != 0 {
		t.Fatal("data not freed at last unlink")
	}
}

func TestLinkValidation(t *testing.T) {
	r := newFS(t)
	if err := r.fs.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := r.fs.Link("/d", "/d2"); !errors.Is(err, ErrIsDir) {
		t.Fatalf("link to dir: %v", err)
	}
	if err := r.fs.Link("/missing", "/x"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("link of missing: %v", err)
	}
	if err := r.fs.Create("/f"); err != nil {
		t.Fatal(err)
	}
	if err := r.fs.Link("/f", "/d"); !errors.Is(err, ErrExist) {
		t.Fatalf("link over existing: %v", err)
	}
}

func TestHardLinksSurviveCrashRecovery(t *testing.T) {
	r := newFS(t)
	if err := r.fs.WriteFile("/f", []byte("linked data")); err != nil {
		t.Fatal(err)
	}
	if err := r.fs.Link("/f", "/g"); err != nil {
		t.Fatal(err)
	}
	if err := r.fs.Remove("/f"); err != nil {
		t.Fatal(err)
	}
	recovered, err := RecoverAfterCrash(fsConfig(), r.clock, r.sm, r.dram)
	if err != nil {
		t.Fatal(err)
	}
	got, err := recovered.ReadFile("/g")
	if err != nil || string(got) != "linked data" {
		t.Fatalf("after recovery: %q %v", got, err)
	}
	if info, _ := recovered.Stat("/g"); info.Nlink != 1 {
		t.Fatalf("recovered nlink %d", info.Nlink)
	}
	if recovered.Exists("/f") {
		t.Fatal("removed link resurrected")
	}
}

func TestMapFileSharedWritesBack(t *testing.T) {
	r := newFS(t)
	if err := r.fs.WriteFile("/shared", bytes.Repeat([]byte{0x11}, 6000)); err != nil {
		t.Fatal(err)
	}
	v, err := vm.New(vm.Config{PageBytes: 4096, DRAMBase: 4 << 20, DRAMBytes: 1 << 20}, r.clock, r.dram, r.flash)
	if err != nil {
		t.Fatal(err)
	}
	s := v.NewSpace()
	n, err := r.fs.MapFileShared(v, s, 0x10000, "/shared", vm.PermRead|vm.PermWrite)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Write(s, 0x10000+100, []byte{0x22, 0x22}); err != nil {
		t.Fatal(err)
	}
	// Before msync the file is unchanged.
	data, _ := r.fs.ReadFile("/shared")
	if data[100] != 0x11 {
		t.Fatal("write visible before msync")
	}
	if err := v.Msync(s, 0x10000, n); err != nil {
		t.Fatal(err)
	}
	data, _ = r.fs.ReadFile("/shared")
	if data[100] != 0x22 || data[101] != 0x22 || data[99] != 0x11 {
		t.Fatalf("msync result %x %x %x", data[99], data[100], data[101])
	}
	if len(data) != 6000 {
		t.Fatalf("file size changed to %d", len(data))
	}
}

// Property: the FS matches an in-memory map of path → contents under
// random create/write/remove/truncate/sync/crash-recover sequences.
func TestFSModelProperty(t *testing.T) {
	type op struct {
		PathIdx uint8
		Action  uint8
		Off     uint16
		Data    []byte
		NewSize uint16
	}
	paths := []string{"/p0", "/p1", "/p2", "/p3"}
	f := func(ops []op) bool {
		r := newFS(t)
		model := map[string][]byte{}
		for _, o := range ops {
			path := paths[int(o.PathIdx)%len(paths)]
			switch o.Action % 6 {
			case 0, 1: // write
				if !r.fs.Exists(path) {
					if err := r.fs.Create(path); err != nil {
						return false
					}
					model[path] = nil
				}
				data := o.Data
				if len(data) > 6000 {
					data = data[:6000]
				}
				off := int64(o.Off) % 8192
				if _, err := r.fs.WriteAt(path, off, data); err != nil {
					return false
				}
				cur := model[path]
				if need := off + int64(len(data)); int64(len(cur)) < need {
					grown := make([]byte, need)
					copy(grown, cur)
					cur = grown
				}
				copy(cur[off:], data)
				model[path] = cur
			case 2: // remove
				if r.fs.Exists(path) {
					if err := r.fs.Remove(path); err != nil {
						return false
					}
					delete(model, path)
				}
			case 3: // truncate
				if r.fs.Exists(path) {
					size := int64(o.NewSize) % 8192
					if err := r.fs.Truncate(path, size); err != nil {
						return false
					}
					cur := model[path]
					grown := make([]byte, size)
					copy(grown, cur)
					model[path] = grown
				}
			case 4: // sync
				if err := r.fs.Sync(); err != nil {
					return false
				}
			case 5: // crash + recover
				nf, err := RecoverAfterCrash(fsConfig(), r.clock, r.sm, r.dram)
				if err != nil {
					return false
				}
				r.fs = nf
			}
		}
		for path, want := range model {
			got, err := r.fs.ReadFile(path)
			if err != nil {
				return false
			}
			if !bytes.Equal(got, want) {
				t.Logf("%s: got %d bytes want %d", path, len(got), len(want))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
