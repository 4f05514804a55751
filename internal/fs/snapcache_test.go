package fs

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ssmobile/internal/engine/backends"
	"ssmobile/internal/engine/pdl"
	"ssmobile/internal/obs"
)

// checkKeptEncoding asserts the invariant the kept snapshot encoding
// rests on: encoding the live state (warm: kept orders and bodies) gives
// byte for byte what encoding a plain copy of it does (cold: everything
// sorted and encoded from scratch), and those bytes decode to the live
// maps.
func checkKeptEncoding(t *testing.T, f *FS, when string) {
	t.Helper()
	live := f.snapshotState()
	warm := appendState(nil, live)
	cold := appendState(nil, plain(live))
	if !bytes.Equal(warm, cold) {
		t.Fatalf("%s: kept encoding (%d bytes) differs from the from-scratch one (%d bytes)", when, len(warm), len(cold))
	}
	dec, err := decodeState(warm)
	if err != nil {
		t.Fatalf("%s: decode: %v", when, err)
	}
	if !reflect.DeepEqual(plain(dec), plain(live)) {
		t.Fatalf("%s: decoded snapshot differs from the live metadata", when)
	}
}

// tree lists the live files and directories by walking from the root, so
// the op generator below always names things that exist after whatever a
// recovery kept or lost.
func tree(t *testing.T, f *FS) (files, dirs []string) {
	t.Helper()
	dirs = []string{"/"}
	for i := 0; i < len(dirs); i++ {
		infos, err := f.ReadDir(dirs[i])
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range infos {
			p := joinPath(dirs[i], in.Name)
			if in.Kind == KindDir {
				dirs = append(dirs, p)
			} else {
				files = append(files, p)
			}
		}
	}
	return files, dirs
}

// TestKeptEncodingMatchesFromScratch drives every mutator, journal
// rollovers, syncs and both recoveries from a seeded stream and checks the
// kept encoding after every single operation.
func TestKeptEncodingMatchesFromScratch(t *testing.T) {
	cfg := fsConfig()
	cfg.SnapshotEvery = 24 // roll the journal over many times
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := newParts(t)
		f, err := Mkfs(cfg, r.clock, r.sm, r.dram)
		if err != nil {
			t.Fatal(err)
		}
		checkKeptEncoding(t, f, "after Mkfs")
		fresh := 0
		newName := func(dirs []string) string {
			fresh++
			// Names sort neither in creation order nor all alike.
			return joinPath(dirs[rng.Intn(len(dirs))], fmt.Sprintf("%c%d", 'a'+rng.Intn(26), fresh))
		}
		for i := 0; i < 2000; i++ {
			files, dirs := tree(t, f)
			pick := func(s []string) string { return s[rng.Intn(len(s))] }
			var what string
			var err error
			switch k := rng.Intn(100); {
			case k < 22 || len(files) == 0:
				what = "create"
				err = f.Create(newName(dirs))
			case k < 27:
				what = "mkdir"
				err = f.Mkdir(newName(dirs))
			case k < 42:
				what = "write"
				_, err = f.WriteAt(pick(files), int64(rng.Intn(9000)), make([]byte, 1+rng.Intn(5000)))
			case k < 50:
				what = "truncate"
				err = f.Truncate(pick(files), int64(rng.Intn(9000)))
			case k < 57:
				what = "link"
				err = f.Link(pick(files), newName(dirs))
			case k < 67: // a file within or across directories, or a directory, empty or not
				what = "rename"
				from, dest := pick(files), dirs
				if len(dirs) > 1 && rng.Intn(4) == 0 {
					// A directory may not move under itself; under the
					// root is always legal.
					from, dest = pick(dirs[1:]), dirs[:1]
				}
				err = f.Rename(from, newName(dest))
			case k < 87: // the last unlink frees the inode for the next create to recycle
				what = "remove"
				err = f.Remove(pick(files))
			case k < 93:
				what = "sync"
				err = f.Sync()
			case k < 97:
				what = "crash recovery"
				f, err = RecoverAfterCrash(cfg, r.clock, r.sm, r.dram)
			default:
				what = "power-failure recovery"
				r.dram.PowerFail()
				f, _, err = RecoverAfterPowerFailure(cfg, r.clock, r.sm, r.dram)
			}
			when := fmt.Sprintf("seed %d op %d (%s)", seed, i, what)
			if err != nil {
				t.Fatalf("%s: %v", when, err)
			}
			checkKeptEncoding(t, f, when)
		}
		if n := f.NumInodes(); n < 20 {
			t.Fatalf("seed %d: the stream left only %d inodes; it exercises too little", seed, n)
		}
	}
}

// populated builds a file system of n files spread over two directories
// and takes one checkpoint, so every kept encoding is warm.
func populated(t testing.TB, n int) (*rig, []byte) { return populatedOn(t, "ftl", n) }

// populatedOn is populated over the named storage engine.
func populatedOn(t testing.TB, eng string, n int) (*rig, []byte) {
	t.Helper()
	r := newPartsOn(t, eng, nil)
	cfg := fsConfig()
	cfg.RBoxBytes = 1 << 20 // room for a 4000-inode snapshot
	f, err := Mkfs(cfg, r.clock, r.sm, r.dram)
	if err != nil {
		t.Fatal(err)
	}
	r.fs = f
	for _, d := range []string{"/t0", "/t1"} {
		if err := f.Mkdir(d); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if err := f.Create(fmt.Sprintf("/t%d/obj-%06d", i%2, i*7919%n)); err != nil {
			t.Fatal(err)
		}
	}
	buf := appendState(nil, f.snapshotState())
	return r, buf
}

// dirtyFile changes a file's metadata the way a write does; dirtyDirent
// replaces one directory entry the way a remove and a create do. Both
// touch only in-core metadata, so the checkpoint's encode can be measured
// without the storage stack under it.
func dirtyFile(f *FS, i int) {
	node := f.order[3+i%(len(f.order)-3)]
	node.Size++
	node.MtimeNs += 1000
}

func dirtyDirent(f *FS, i int) {
	dir := f.inodes[f.inodes[RootIno].Entries["t0"]]
	e := dir.ents[i%len(dir.ents)]
	dir.delEntry(e.name)
	dir.setEntry(e.name, e.ino)
	dir.MtimeNs += 1000
}

// TestWarmCheckpointEncodeDoesNotAllocate is the allocation gate for the
// checkpoint's encode: with the kept encoding warm, re-encoding after one
// file or one directory entry changed allocates nothing.
func TestWarmCheckpointEncodeDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	for name, dirty := range map[string]func(*FS, int){"one-file": dirtyFile, "one-dirent": dirtyDirent} {
		r, buf := populated(t, 300)
		before := append([]byte(nil), buf...)
		i := 0
		allocs := testing.AllocsPerRun(200, func() {
			dirty(r.fs, i)
			i++
			buf = appendState(buf[:0], r.fs.snapshotState())
		})
		if allocs != 0 {
			t.Errorf("%s: warm checkpoint encode allocated %.0f times per run", name, allocs)
		}
		if bytes.Equal(buf, before) {
			t.Errorf("%s: the encoding did not change", name)
		}
		checkKeptEncoding(t, r.fs, name)
	}

	// The other kind of checkpoint: one mutation journalled, sealed into
	// a frame and appended to the flash log, all the way down through the
	// device model — on ftl a fresh page per append, on pdl a delta of the
	// frame's bytes attached to the tail block's chain. The pending frame
	// and the log's tail block are reused; so is the image buffer, for the
	// fold the run crosses.
	for _, eng := range backends.Names {
		r, _ := populatedOn(t, eng, 300)
		if err := r.fs.Sync(); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() { frameCheckpoint(t, r.fs) })
		if allocs != 0 {
			t.Errorf("%s: warm frame checkpoint allocated %.0f times per run", eng, allocs)
		}
		if p, ok := r.eng.(*pdl.Engine); ok && p.DeltaWrites() < 150 {
			t.Errorf("pdl: %d delta writes over 200 frame checkpoints: the appends are not taking the delta path", p.DeltaWrites())
		}
		if frames, images := r.fs.ckptCount[ckptFrame].Value(), r.fs.ckptCount[ckptImage].Value(); frames < 190 || images < 2 {
			t.Errorf("%s: %d frames and %d images: want a run of frames across a fold", eng, frames, images)
		}
	}
}

// frameCheckpoint makes one journalled change and checkpoints it.
func frameCheckpoint(t testing.TB, f *FS) {
	const path = "/t0/obj-000000"
	node, err := f.resolve(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(path, node.Size+1); err != nil {
		t.Fatal(err)
	}
	if err := f.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

// The fs rung of the benchmark ladder: what one checkpoint's encode costs
// the host when one file, or one directory entry, changed since the last.
// The encode rungs walk every inode and every directory entry; the frame
// rungs write only the change, with the image every fold takes amortised
// in.
func BenchmarkCheckpoint(b *testing.B) {
	for _, n := range []int{200, 4000} {
		for _, c := range []struct {
			name  string
			dirty func(*FS, int)
		}{{"one-file", dirtyFile}, {"one-dirent", dirtyDirent}} {
			b.Run(fmt.Sprintf("inodes=%d/dirty=%s", n, c.name), func(b *testing.B) {
				r, buf := populated(b, n)
				b.SetBytes(int64(len(buf)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.dirty(r.fs, i)
					buf = appendState(buf[:0], r.fs.snapshotState())
				}
			})
		}
		// A whole checkpoint of one change, down through the device model:
		// a frame, with the image it folds into every logCap/frameLen
		// checkpoints amortised in.
		b.Run(fmt.Sprintf("inodes=%d/frame", n), func(b *testing.B) {
			r, _ := populated(b, n)
			if err := r.fs.Sync(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				frameCheckpoint(b, r.fs)
			}
		})
	}
}

// BenchmarkDirMutation is the directory-mutation rung: an unlink and a
// re-create of one name in the middle of a directory of 200 or 2000
// entries, through the held directory as the server calls them, with the
// journal's records and its rollovers' snapshots amortised in.
func BenchmarkDirMutation(b *testing.B) {
	for _, n := range []int{200, 2000} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			r, _ := populated(b, 2*n)
			f := r.fs
			dir := f.inodes[f.inodes[RootIno].Entries["t0"]]
			name := dir.ents[n/2].name
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := f.RemoveAt(dir, name); err != nil {
					b.Fatal(err)
				}
				if _, err := f.CreateAt(dir, name, KindFile); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// fsSeries reads the file system's own counters, its span count, and the
// flash bytes its checkpoints were charged for.
func fsSeries(o *obs.Observer) (writes, syncs, written, spans, metadataBytes int64) {
	lbl := func(op string) obs.Labels { return obs.Labels{"layer": "fs", "op": op} }
	for _, sp := range o.Tracer.Spans() {
		if sp.Layer == "fs" {
			spans++
		}
	}
	return o.Registry.Counter("ops_total", lbl("write")).Value(),
		o.Registry.Counter("ops_total", lbl("sync")).Value(),
		o.Registry.Counter("bytes_total", lbl("write")).Value(),
		spans,
		o.Registry.Counter("flash_bytes_programmed_total", obs.Labels{"layer": "flash", "device": "flash", "cause": obs.CauseMetadata.String()}).Value()
}

// TestRecoveredFSCountsAndAttributes is the regression test for the dark
// recovered file system: after either recovery the fs counters, spans and
// the metadata cause must work as they do after Mkfs.
func TestRecoveredFSCountsAndAttributes(t *testing.T) {
	recoveries := map[string]func(*rig, Config) (*FS, error){
		"mkfs": func(r *rig, _ Config) (*FS, error) { return r.fs, nil },
		"crash": func(r *rig, cfg Config) (*FS, error) {
			return RecoverAfterCrash(cfg, r.clock, r.sm, r.dram)
		},
		"power failure": func(r *rig, cfg Config) (*FS, error) {
			r.dram.PowerFail()
			f, _, err := RecoverAfterPowerFailure(cfg, r.clock, r.sm, r.dram)
			return f, err
		},
	}
	for name, recoverFS := range recoveries {
		o := obs.New(1 << 16) // large enough that the span ring never wraps here
		r := newPartsOn(t, "ftl", o)
		cfg := fsConfig()
		cfg.Obs = o
		var err error
		if r.fs, err = Mkfs(cfg, r.clock, r.sm, r.dram); err != nil {
			t.Fatal(err)
		}
		if err := r.fs.WriteFile("/f", []byte("before")); err != nil {
			t.Fatal(err)
		}
		if err := r.fs.Sync(); err != nil {
			t.Fatal(err)
		}
		f, err := recoverFS(r, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		w0, s0, b0, sp0, m0 := fsSeries(o)
		for i := 0; i < 5; i++ {
			if _, err := f.WriteAt("/f", 0, []byte("after")); err != nil {
				t.Fatal(err)
			}
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		w1, s1, b1, sp1, m1 := fsSeries(o)
		if w1-w0 != 5 || s1-s0 != 5 || b1-b0 != 25 || sp1-sp0 != 10 {
			t.Errorf("after %s: 5 writes of 5 bytes and 5 syncs moved the fs series by %d writes, %d syncs, %d bytes, %d spans",
				name, w1-w0, s1-s0, b1-b0, sp1-sp0)
		}
		if m1 <= m0 {
			t.Errorf("after %s: 5 checkpoints charged no flash bytes to the metadata cause", name)
		}
	}
}

// TestCrashRecoveryDropsOldCheckpointTail is the regression test for the
// leaked checkpoint tail: a checkpoint taken after an OS-crash recovery
// that is smaller than the one before it must free the blocks it no
// longer covers.
func TestCrashRecoveryDropsOldCheckpointTail(t *testing.T) {
	r := newFS(t)
	names := make([]string, 600)
	for i := range names {
		names[i] = fmt.Sprintf("/a-file-with-a-long-enough-name-%04d", i)
		if err := r.fs.Create(names[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.fs.Sync(); err != nil {
		t.Fatal(err)
	}
	ckptBlocks := func() int { return len(r.sm.Blocks(metaObject)) }
	big := ckptBlocks()
	if big < 3 {
		t.Fatalf("the large checkpoint holds only %d blocks; the test needs a tail to leak", big)
	}
	f, err := RecoverAfterCrash(fsConfig(), r.clock, r.sm, r.dram)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if err := f.Remove(name); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := ckptBlocks(); got != 1 {
		t.Fatalf("checkpoint of an empty tree after crash recovery holds %d blocks (was %d before); want 1", got, big)
	}
}
