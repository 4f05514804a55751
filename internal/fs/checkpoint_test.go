package fs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ssmobile/internal/sim"
)

// opStream is a seeded stream of namespace operations over a few hundred
// files. It keeps its own list of what exists, so two streams with the
// same seed issue the same operations whatever file system they drive.
type opStream struct {
	rng   *rand.Rand
	files []string
	dirs  []string
	fresh int
}

func newOpStream(seed int64) *opStream {
	return &opStream{rng: rand.New(rand.NewSource(seed)), dirs: []string{"/"}}
}

func (s *opStream) newName() string {
	s.fresh++
	// Names sort neither in creation order nor all alike.
	return joinPath(s.dirs[s.rng.Intn(len(s.dirs))], fmt.Sprintf("%c-file-%05d", 'a'+s.rng.Intn(26), s.fresh))
}

func (s *opStream) takeFile() (string, int) {
	i := s.rng.Intn(len(s.files))
	return s.files[i], i
}

// preload creates n files under a handful of directories.
func (s *opStream) preload(t testing.TB, r *rig, f *FS, n int) {
	t.Helper()
	for i := 0; i < 4; i++ {
		d := fmt.Sprintf("/d%d", i)
		if err := f.Mkdir(d); err != nil {
			t.Fatal(err)
		}
		s.dirs = append(s.dirs, d)
	}
	for i := 0; i < n; i++ {
		r.clock.Advance(sim.Millisecond)
		name := s.newName()
		if err := f.Create(name); err != nil {
			t.Fatal(err)
		}
		s.files = append(s.files, name)
	}
}

// step issues one operation and reports whether it was a sync.
func (s *opStream) step(t testing.TB, r *rig, f *FS) (synced bool) {
	t.Helper()
	r.clock.Advance(sim.Millisecond)
	var what string
	var err error
	switch k := s.rng.Intn(100); {
	case k < 15 || len(s.files) < 8:
		what = "create"
		name := s.newName()
		err = f.Create(name)
		s.files = append(s.files, name)
	case k < 17:
		what = "mkdir"
		name := s.newName()
		err = f.Mkdir(name)
		s.dirs = append(s.dirs, name)
	case k < 40:
		what = "write"
		name, _ := s.takeFile()
		_, err = f.WriteAt(name, int64(s.rng.Intn(9000)), make([]byte, 1+s.rng.Intn(3000)))
	case k < 50:
		what = "truncate"
		name, _ := s.takeFile()
		err = f.Truncate(name, int64(s.rng.Intn(9000)))
	case k < 56:
		what = "link"
		old, _ := s.takeFile()
		name := s.newName()
		err = f.Link(old, name)
		s.files = append(s.files, name)
	case k < 68:
		what = "rename"
		old, i := s.takeFile()
		s.files[i] = s.newName()
		err = f.Rename(old, s.files[i])
	case k < 90: // low-numbered files go too, so the image's bytes shift
		what = "remove"
		name, i := s.takeFile()
		err = f.Remove(name)
		s.files[i] = s.files[len(s.files)-1]
		s.files = s.files[:len(s.files)-1]
	default:
		what = "sync"
		err = f.Sync()
		synced = true
	}
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	return synced
}

// ckptRun drives seed's stream over a fresh rig — preload, sync, then ops
// — and stops after stopAfter syncs (never, if negative). It returns the
// encoded metadata as of each sync and which kind of checkpoint it took.
func ckptRun(t testing.TB, seed int64, ops, stopAfter int) (r *rig, states [][]byte, kinds []string) {
	t.Helper()
	r = newFS(t)
	s := newOpStream(seed)
	s.preload(t, r, r.fs, 450)
	count := func() (c [ckptKinds]int64) {
		for k := range c {
			c[k] = r.fs.ckptCount[k].Value()
		}
		return c
	}
	noteSync := func(before [ckptKinds]int64) {
		state := encodeState(r.fs.snapshotState())
		states = append(states, state)
		for k, n := range count() {
			if n != before[k] {
				kinds = append(kinds, ckptKindNames[k])
			}
		}
		if len(kinds) != len(states) {
			t.Fatalf("sync %d moved the checkpoint counters %v -> %v: want exactly one", len(states)-1, before, count())
		}
	}
	before := count()
	if err := r.fs.Sync(); err != nil {
		t.Fatal(err)
	}
	noteSync(before)
	for i := 0; i < ops && len(states) != stopAfter; i++ {
		before = count()
		if !s.step(t, r, r.fs) {
			continue
		}
		noteSync(before)
		if len(states) != stopAfter && s.rng.Intn(4) == 0 {
			// A sync on the heels of another has nothing to write.
			before = count()
			if err := r.fs.Sync(); err != nil {
				t.Fatal(err)
			}
			noteSync(before)
		}
	}
	return r, states, kinds
}

// TestCheckpointReplayEqualsImage is the replay-≡-image property: after
// every sync of a seeded run, a copy of the run to that point loses power,
// and what mounts is byte for byte the metadata as of that sync — whether
// the sync wrote an image, a frame or nothing — for a mount that read no
// more than twice the image.
func TestCheckpointReplayEqualsImage(t *testing.T) {
	const ops = 800
	for seed := int64(1); seed <= 2; seed++ {
		_, states, kinds := ckptRun(t, seed, ops, -1)
		seen := map[string]int{}
		for _, k := range kinds {
			seen[k]++
		}
		if seen["image"] < 3 || seen["frame"] < 10 || seen["empty"] < 2 {
			t.Fatalf("seed %d: checkpoints by kind %v over %d syncs: the stream exercises too little", seed, seen, len(kinds))
		}
		for k := range states {
			r, again, _ := ckptRun(t, seed, ops, k+1)
			if !bytes.Equal(again[k], states[k]) {
				t.Fatalf("seed %d: the run is not repeatable at sync %d", seed, k)
			}
			// Mutations after the sync are what the power failure takes.
			if err := r.fs.Create("/unsynced"); err != nil {
				t.Fatal(err)
			}
			if _, err := r.fs.WriteAt("/unsynced", 0, []byte("gone")); err != nil {
				t.Fatal(err)
			}
			bs := r.fs.BlockBytes()
			imageBlocks := int64(r.fs.ckpt.logCap / bs)
			if imageBlocks < 3 {
				t.Fatalf("seed %d sync %d: the image spans %d blocks; the test wants several", seed, k, imageBlocks)
			}
			for round := 0; round < 2; round++ {
				// The second round fails again at once: the first mount's
				// orphan reap must have left the checkpoint alone.
				when := fmt.Sprintf("seed %d sync %d (%s) mount %d", seed, k, kinds[k], round)
				readsBefore := r.sm.Stats().FlashReads
				r.dram.PowerFail()
				f, _, err := RecoverAfterPowerFailure(fsConfig(), r.clock, r.sm, r.dram)
				if err != nil {
					t.Fatalf("%s: %v", when, err)
				}
				if reads := r.sm.Stats().FlashReads - readsBefore; reads > 2*imageBlocks {
					t.Errorf("%s: read %d blocks of metadata for an image of %d", when, reads, imageBlocks)
				}
				got := encodeState(f.snapshotState())
				if !bytes.Equal(got, states[k]) {
					t.Fatalf("%s: recovered metadata (%d bytes) is not the metadata as of the sync (%d bytes)", when, len(got), len(states[k]))
				}
			}
		}
	}
}

// TestCrashRecoveryEqualsLiveState is the regression test for the
// timestamps OS-crash recovery lost: whatever the operations, what the
// recovery box replays to is byte for byte the live metadata — created
// inodes and touched directories carry their times.
func TestCrashRecoveryEqualsLiveState(t *testing.T) {
	cfg := fsConfig()
	cfg.SnapshotEvery = 24 // recoveries land on fresh snapshots and on long journals alike
	r := newParts(t)
	f, err := Mkfs(cfg, r.clock, r.sm, r.dram)
	if err != nil {
		t.Fatal(err)
	}
	s := newOpStream(7)
	s.preload(t, r, f, 40)
	for i := 0; i < 600; i++ {
		s.step(t, r, f)
		if i%7 != 0 {
			continue
		}
		live := encodeState(f.snapshotState())
		if f, err = RecoverAfterCrash(cfg, r.clock, r.sm, r.dram); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		got := encodeState(f.snapshotState())
		if !bytes.Equal(got, live) {
			t.Fatalf("op %d: recovered metadata differs from the live metadata\n%s", i, diffStates(t, got, live))
		}
	}
}

// diffStates names the first inode two encoded states disagree on.
func diffStates(t testing.TB, got, want []byte) string {
	t.Helper()
	g, err := decodeState(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := decodeState(want)
	if err != nil {
		t.Fatal(err)
	}
	g, w = plain(g), plain(w)
	for _, node := range w.inoOrder() {
		if have := g.Inodes[node.Ino]; !reflect.DeepEqual(have, node) {
			return fmt.Sprintf("inode %d: got %+v, want %+v", node.Ino, have, node)
		}
	}
	return fmt.Sprintf("NextIno %d vs %d, %d vs %d inodes", g.NextIno, w.NextIno, len(g.Inodes), len(w.Inodes))
}

// TestCrashRecoveryKeepsTimestamps is the probe the bug was found with.
func TestCrashRecoveryKeepsTimestamps(t *testing.T) {
	r := newFS(t)
	if err := r.fs.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	r.clock.Advance(10 * sim.Millisecond)
	at := r.clock.Now()
	if err := r.fs.Create("/d/x"); err != nil {
		t.Fatal(err)
	}
	f, err := RecoverAfterCrash(fsConfig(), r.clock, r.sm, r.dram)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/d", "/d/x"} {
		if info, err := f.Stat(path); err != nil || info.Mtime != at {
			t.Errorf("%s after crash recovery: mtime %v (err %v), want %v", path, info.Mtime, err, at)
		}
	}
}

// TestCorruptCheckpointDetected: a flash checkpoint that is all there but
// does not check is the checkpoint's fault, reported as such — the
// recovery box, being DRAM, had no part in it — and says which image or
// frame failed.
func TestCorruptCheckpointDetected(t *testing.T) {
	for _, c := range []struct {
		name    string
		idx     int64 // which block of generation 1 to damage
		mention string
	}{
		{"image", 1, "image of generation 1"},
		{"frame", ckptLogPart, ""}, // a frame that does not open is a torn append: replay stops, nothing to report
	} {
		r := newFS(t)
		for i := 0; i < 400; i++ {
			if err := r.fs.Create(fmt.Sprintf("/file-with-a-longish-name-%04d", i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.fs.Sync(); err != nil { // the image
			t.Fatal(err)
		}
		if err := r.fs.Remove("/file-with-a-longish-name-0007"); err != nil {
			t.Fatal(err)
		}
		if err := r.fs.Sync(); err != nil { // a frame
			t.Fatal(err)
		}
		if n := r.fs.ckptCount[ckptFrame].Value(); n != 1 {
			t.Fatalf("%s: %d frames after the second sync, want 1", c.name, n)
		}
		key := ckptKey(1, c.idx)
		block := make([]byte, r.fs.BlockBytes())
		n, err := r.sm.ReadBlock(key, block)
		if err != nil || n == 0 {
			t.Fatalf("%s: reading the block to damage: %d bytes, %v", c.name, n, err)
		}
		block[30] ^= 0x40
		if err := r.sm.WriteBlock(key, block[:n]); err != nil {
			t.Fatal(err)
		}
		if err := r.sm.SyncObject(metaObject); err != nil {
			t.Fatal(err)
		}
		r.dram.PowerFail()
		f, _, err := RecoverAfterPowerFailure(fsConfig(), r.clock, r.sm, r.dram)
		if c.mention == "" {
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if !f.Exists("/file-with-a-longish-name-0007") {
				t.Errorf("%s: the remove in the damaged frame was replayed", c.name)
			}
			continue
		}
		if !errors.Is(err, ErrCorruptCheckpoint) || errors.Is(err, ErrCorruptRBox) || !strings.Contains(err.Error(), c.mention) {
			t.Errorf("%s: recovery over a damaged checkpoint: %v", c.name, err)
		}
	}
}

// testLog builds a log of generation gen: three frames over the empty
// tree, and where each ends.
func testLog(gen uint64) (log []byte, ends []int) {
	payloads := [][]byte{
		appendRecord(nil, recCreate, 2, RootIno, uint64(KindFile), 100, "a", ""),
		appendRecord(appendRecord(nil, recSetSize, 2, 4097, 0, 200, "", ""), recCreate, 3, RootIno, uint64(KindDir), 201, "d", ""),
		appendRecord(nil, recRename, 2, RootIno, 3, 300, "a", "b"),
	}
	for seq, p := range payloads {
		log = append(log, sealFrame(gen, uint32(seq), p)...)
		ends = append(ends, len(log))
	}
	return log, ends
}

func sealFrame(gen uint64, seq uint32, payload []byte) []byte {
	frame := make([]byte, ckptHeaderBytes, ckptHeaderBytes+len(payload))
	binary.LittleEndian.PutUint64(frame[4:], gen)
	binary.LittleEndian.PutUint32(frame[12:], seq)
	binary.LittleEndian.PutUint32(frame[16:], uint32(len(payload)))
	frame = append(frame, payload...)
	seal(ckptFrameMagic, frame)
	return frame
}

// replayed is the empty tree with the first n frames of log applied.
func replayed(t testing.TB, log []byte, gen uint64, n int, ends []int) []byte {
	t.Helper()
	st := emptyState()
	if n > 0 {
		if frames, err := replayLog(&st, log[:ends[n-1]], gen); err != nil || int(frames) != n {
			t.Fatalf("replaying %d intact frames: %d, %v", n, frames, err)
		}
	}
	return encodeState(st)
}

// TestReplayLogStopsAtFirstBadSeal: a frame that does not open as the
// next frame of the generation ends the replay, however good the frames
// after it are.
func TestReplayLogStopsAtFirstBadSeal(t *testing.T) {
	const gen = 7
	log, ends := testLog(gen)
	frame := func(i int) []byte {
		start := 0
		if i > 0 {
			start = ends[i-1]
		}
		return log[start:ends[i]]
	}
	reseal := func(seq int, edit func(f []byte)) []byte {
		f := bytes.Clone(frame(seq))
		edit(f)
		seal(ckptFrameMagic, f)
		return f
	}
	join := func(frames ...[]byte) []byte { return bytes.Join(frames, nil) }
	flipped := bytes.Clone(log)
	flipped[ends[0]+ckptHeaderBytes+3] ^= 1
	for _, c := range []struct {
		name string
		log  []byte
		want int // frames applied
	}{
		{"intact", log, 3},
		{"zero padding after", append(bytes.Clone(log), make([]byte, 100)...), 3},
		{"empty", nil, 0},
		{"truncated header", log[:ends[1]+ckptHeaderBytes-1], 2},
		{"truncated payload", log[:ends[2]-1], 2},
		{"bit flip in frame 1", flipped, 1},
		{"frame 1 of another generation", join(frame(0), reseal(1, func(f []byte) { binary.LittleEndian.PutUint64(f[4:], gen-1) }), frame(2)), 1},
		{"frames 1 and 2 swapped", join(frame(0), frame(2), frame(1)), 1},
		{"frame 0 missing", log[ends[0]:], 0},
		{"frame 1 twice", join(frame(0), frame(1), frame(1), frame(2)), 2},
	} {
		st := emptyState()
		frames, err := replayLog(&st, c.log, gen)
		if err != nil || int(frames) != c.want {
			t.Errorf("%s: applied %d frames (err %v), want %d", c.name, frames, err, c.want)
			continue
		}
		got := encodeState(st)
		if !bytes.Equal(got, replayed(t, log, gen, c.want, ends)) {
			t.Errorf("%s: the state is not that of the first %d frames", c.name, c.want)
		}
	}
	// A frame that opens but whose records do not replay is corruption.
	bad := join(frame(0), sealFrame(gen, 1, appendRecord(nil, recLink, 99, 98, 0, 5, "x", "")))
	st := emptyState()
	if frames, err := replayLog(&st, bad, gen); !errors.Is(err, ErrCorruptCheckpoint) || frames != 1 || !strings.Contains(err.Error(), "log frame 1") {
		t.Errorf("unreplayable records in a sealed frame: %d frames, %v", frames, err)
	}
}
