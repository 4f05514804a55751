package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"ssmobile/internal/flash"
	"ssmobile/internal/fs"
	"ssmobile/internal/obs"
)

// The whole-system recovery property: with the write-back daemon disabled
// (so flash changes only on explicit Sync), the system must behave as a
// two-level model —
//
//   - live state: what reads see normally, and what survives an OS crash
//     (battery-backed DRAM keeps everything, the recovery box restores
//     the namespace);
//   - synced state: a snapshot taken at each Sync, which is exactly what
//     survives a power failure followed by a full device-scan remount.
//
// Any divergence (stale data resurrected, synced data lost, namespace
// drift) fails the property.
func TestSystemCrashRecoveryProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	type op struct {
		Action  uint8 // 0-2 write, 3 delete, 4 sync, 5 os-crash, 6 power-fail
		FileIdx uint8
		Val     byte
		SizeKB  uint8
	}
	files := []string{"a", "b", "c", "d"}

	f := func(ops []op) bool {
		sys, err := NewSolidState(SolidStateConfig{
			DRAMBytes:   16 << 20,
			FlashBytes:  32 << 20,
			BufferBytes: 8 << 20, // ample: no evictions
			RBoxBytes:   1 << 20,
			// WriteBackDelay left at default but Tick is never called, so
			// age-based migration never runs: flash changes only on Sync.
		})
		if err != nil {
			t.Log(err)
			return false
		}
		live := map[string][]byte{}
		synced := map[string][]byte{}

		for i, o := range ops {
			sys.Clock().Advance(1 << 20) // ~1ms per op
			name := files[int(o.FileIdx)%len(files)]
			switch o.Action % 7 {
			case 0, 1, 2: // write (create if needed)
				size := (int(o.SizeKB)%16 + 1) * 512
				data := bytes.Repeat([]byte{o.Val}, size)
				if !sys.FS.Exists("/" + name) {
					if err := sys.Create(name); err != nil {
						t.Logf("op %d create: %v", i, err)
						return false
					}
				}
				if _, err := sys.WriteAt(name, 0, data); err != nil {
					t.Logf("op %d write: %v", i, err)
					return false
				}
				// Model: replace the prefix, like WriteAt at offset 0.
				cur := live[name]
				if len(cur) < size {
					grown := make([]byte, size)
					copy(grown, cur)
					cur = grown
				} else {
					cur = append([]byte(nil), cur...)
				}
				copy(cur, data)
				live[name] = cur
			case 3: // delete
				if sys.FS.Exists("/" + name) {
					if err := sys.Remove(name); err != nil {
						t.Logf("op %d remove: %v", i, err)
						return false
					}
					delete(live, name)
				}
			case 4: // sync: snapshot the model
				if err := sys.Sync(); err != nil {
					t.Logf("op %d sync: %v", i, err)
					return false
				}
				synced = map[string][]byte{}
				for k, v := range live {
					synced[k] = append([]byte(nil), v...)
				}
			case 5: // OS crash: everything survives
				recovered, err := fs.RecoverAfterCrash(fs.Config{
					RBoxBase: 0, RBoxBytes: 1 << 20,
				}, sys.Clock(), sys.Storage, sys.DRAM)
				if err != nil {
					t.Logf("op %d crash recovery: %v", i, err)
					return false
				}
				sys.FS = recovered
			case 6: // power failure: revert to synced state
				sys.DRAM.PowerFail()
				remounted, err := sys.RemountAfterPowerFailure()
				if err != nil {
					t.Logf("op %d remount: %v", i, err)
					return false
				}
				sys = remounted
				live = map[string][]byte{}
				for k, v := range synced {
					live[k] = append([]byte(nil), v...)
				}
			}
		}

		// Final check: the system matches the live model exactly.
		for _, name := range files {
			want, exists := live[name]
			if sys.FS.Exists("/"+name) != exists {
				t.Logf("existence of %s: fs=%v model=%v", name, !exists, exists)
				return false
			}
			if !exists {
				continue
			}
			got, err := sys.FS.ReadFile("/" + name)
			if err != nil {
				t.Logf("read %s: %v", name, err)
				return false
			}
			if !bytes.Equal(got, want) {
				t.Logf("%s: got %d bytes want %d (first diff at %s)",
					name, len(got), len(want), firstDiff(got, want))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPowerCutCrashPointProperty extends the quiescent property above to
// mid-operation power cuts: a fixed mixed workload (writes, overwrites,
// deletes, truncations, syncs) is replayed once per destructive flash
// operation with the fault injector cutting power at that operation —
// torn pages, half-written out-of-band records, interrupted erases — and
// the system is remounted by full device scan. Every file must then read
// back either its last-synced version or a prefix-consistent image of
// the version that was being flushed; synced files must not vanish.
func TestPowerCutCrashPointProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	const (
		wr = iota
		tr
		de
		sy
	)
	type step struct {
		act   int
		fileI int
		size  int
		val   byte
	}
	files := []string{"a", "b", "c", "d"}
	// Single-block files (<= 4KB) keep flush atomicity per file: a cut
	// mid-sync leaves each file wholly old or wholly new, never mixed.
	steps := []step{
		{wr, 0, 1200, 0x11}, {wr, 1, 4096, 0x22}, {wr, 2, 600, 0x33}, {act: sy},
		{wr, 0, 300, 0x44}, {tr, 1, 1000, 0}, {wr, 3, 2048, 0x55}, {act: sy},
		{de, 2, 0, 0}, {wr, 2, 900, 0x66}, {wr, 1, 3000, 0x77}, {act: sy},
		{wr, 0, 4096, 0x88}, {de, 3, 0, 0}, {tr, 0, 2000, 0}, {act: sy},
		{wr, 3, 1111, 0x99}, {wr, 2, 2222, 0xAA}, {act: sy},
	}

	newSys := func(inj flash.Injector) *SolidStateSystem {
		sys, err := NewSolidState(SolidStateConfig{
			DRAMBytes:   8 << 20,
			FlashBytes:  8 << 20,
			BufferBytes: 2 << 20, // ample: no evictions, flash moves only on Sync
			RBoxBytes:   1 << 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		if inj != nil {
			sys.Flash.SetInjector(inj)
		}
		return sys
	}

	// replay drives the workload, maintaining the live and synced models;
	// it stops at the power cut (if the injector fires) and reports it.
	// history accumulates every version each file ever had synced: a cut
	// mid-sync can pair a fresh metadata checkpoint with an older data
	// block (the checkpoint object flushes first), so recovered content
	// may be any durable generation, not only the latest.
	// dropped marks files deleted since their last completed sync: the
	// delete breaks the durable chain (a recreate gets a fresh object
	// whose data is not yet flushed), so such files may read as holes.
	replay := func(sys *SolidStateSystem) (live, synced map[string][]byte, history map[string][][]byte, dropped map[string]bool, cut bool, err error) {
		live = map[string][]byte{}
		synced = map[string][]byte{}
		history = map[string][][]byte{}
		dropped = map[string]bool{}
		for i, s := range steps {
			sys.Clock().Advance(1 << 20)
			name := files[s.fileI]
			var stepErr error
			switch s.act {
			case wr:
				data := bytes.Repeat([]byte{s.val}, s.size)
				if !sys.FS.Exists("/" + name) {
					if stepErr = sys.Create(name); stepErr != nil {
						break
					}
				}
				if _, stepErr = sys.WriteAt(name, 0, data); stepErr == nil {
					cur := live[name]
					if len(cur) < s.size {
						grown := make([]byte, s.size)
						copy(grown, cur)
						cur = grown
					} else {
						cur = append([]byte(nil), cur...)
					}
					copy(cur, data)
					live[name] = cur
				}
			case tr:
				if stepErr = sys.FS.Truncate("/"+name, int64(s.size)); stepErr == nil {
					if cur, ok := live[name]; ok && s.size < len(cur) {
						live[name] = append([]byte(nil), cur[:s.size]...)
					}
				}
			case de:
				if sys.FS.Exists("/" + name) {
					if stepErr = sys.Remove(name); stepErr == nil {
						delete(live, name)
						dropped[name] = true
					}
				}
			case sy:
				if stepErr = sys.Sync(); stepErr == nil {
					synced = map[string][]byte{}
					for k, v := range live {
						cp := append([]byte(nil), v...)
						synced[k] = cp
						history[k] = append(history[k], cp)
					}
					dropped = map[string]bool{}
				}
			}
			if stepErr != nil {
				if errors.Is(stepErr, flash.ErrPowerCut) {
					return live, synced, history, dropped, true, nil
				}
				return nil, nil, nil, nil, false, fmt.Errorf("step %d: %w", i, stepErr)
			}
		}
		return live, synced, history, dropped, sys.Flash.Lost(), nil
	}

	// Reference run: count the workload's destructive flash ops.
	ref := newSys(nil)
	if _, _, _, _, _, err := replay(ref); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	total := ref.Flash.DestructiveOps()
	if total < 20 {
		t.Fatalf("workload too small: %d destructive ops", total)
	}

	// prefixOK: got agrees with want on their overlap and any excess is
	// zero padding — the inode size (from the metadata checkpoint) and the
	// block image (from the data flush) may straddle the cut.
	prefixOK := func(got, want []byte) bool {
		n := len(got)
		if len(want) < n {
			n = len(want)
		}
		if !bytes.Equal(got[:n], want[:n]) {
			return false
		}
		for _, b := range got[n:] {
			if b != 0 {
				return false
			}
		}
		return true
	}

	for idx := int64(0); idx < total; idx++ {
		for _, fate := range []flash.Outcome{flash.CutBefore, flash.CutDuring, flash.CutAfter} {
			sys := newSys(&flash.CutAt{Index: idx, Fate: fate})
			live, synced, history, dropped, cut, err := replay(sys)
			if err != nil {
				t.Fatalf("op %d fate %d: %v", idx, fate, err)
			}
			if !cut {
				continue
			}
			sys.DRAM.PowerFail()
			rec, err := sys.RemountAfterPowerFailure()
			if err != nil {
				t.Fatalf("op %d fate %d: remount: %v", idx, fate, err)
			}
			for _, name := range files {
				liveV, inLive := live[name]
				syncedV, inSynced := synced[name]
				if !rec.FS.Exists("/" + name) {
					// Absence is a violation only for a file both synced and
					// never deleted since: its checkpoint entry and data were
					// durable before the cut.
					if inLive && inSynced && !dropped[name] {
						t.Errorf("op %d fate %d: synced file %s vanished", idx, fate, name)
					}
					continue
				}
				if !inLive && !inSynced {
					// A deleted file may resurrect (its delete was not yet
					// checkpointed); its content predates our models.
					continue
				}
				got, err := rec.FS.ReadFile("/" + name)
				if err != nil {
					t.Errorf("op %d fate %d: read %s: %v", idx, fate, name, err)
					continue
				}
				ok := (inSynced && prefixOK(got, syncedV)) || (inLive && prefixOK(got, liveV))
				for _, old := range history[name] {
					// An older durable generation may pair with a newer
					// checkpoint's inode size (truncations are metadata-only
					// until the next data flush).
					ok = ok || prefixOK(got, old)
				}
				if !ok && (!inSynced || dropped[name]) {
					// Created — or deleted and recreated — after the last
					// completed sync: the inode may have reached the mid-cut
					// checkpoint while its (fresh) object's data block never
					// flushed, so the file legitimately reads as a hole.
					ok = prefixOK(got, nil)
				}
				if !ok {
					t.Errorf("op %d fate %d: %s recovered %d bytes matching no durable or in-flight version (synced %d B, live %d B)",
						idx, fate, name, len(got), len(syncedV), len(liveV))
				}
			}
		}
	}
}

// TestPowerCutMultiBlockCheckpoint is the crash-point enumeration the
// four-file workload above cannot be: its metadata image spans several
// blocks, so a checkpoint is several page programs, and its syncs take
// every shape a checkpoint has — a whole image, a frame that fits the
// log's tail block, a frame that spills into the next block, and the fold
// of a full log into the next generation's image. Power is cut at every
// destructive flash operation, before, during and after it. Every remount
// must succeed, and the namespace it finds — names, sizes, mtimes — must be
// exactly the namespace as of the sync that was cut (its checkpoint
// committed before the cut) or of the last sync that returned: never
// older, never a mixture.
//
// Both engines run it: rewriting the log's tail block in place is a whole
// new page to ftl and a differential record to pdl.
func TestPowerCutMultiBlockCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	for _, engine := range []string{"ftl", "pdl"} {
		t.Run(engine, func(t *testing.T) { powerCutMultiBlockCheckpoint(t, engine) })
	}
}

func powerCutMultiBlockCheckpoint(t *testing.T, engine string) {
	name := func(i int) string { return fmt.Sprintf("a-file-with-a-long-enough-name-%04d", i) }
	type namespace map[string]fs.Info
	list := func(sys *SolidStateSystem) namespace {
		infos, err := sys.FS.ReadDir("/")
		if err != nil {
			t.Fatal(err)
		}
		ns := namespace{}
		for _, in := range infos {
			ns[in.Name] = in
		}
		return ns
	}
	same := func(a, b namespace) bool {
		if len(a) != len(b) {
			return false
		}
		for n, in := range a {
			if b[n] != in {
				return false
			}
		}
		return true
	}
	newSys := func(inj flash.Injector) *SolidStateSystem {
		// A small card: every remount blank-checks the whole array, and
		// this workload needs a few dozen pages of it.
		sys, err := NewSolidState(SolidStateConfig{
			DRAMBytes:       4 << 20,
			FlashBytes:      512 << 10,
			EraseBlockBytes: 16 << 10,
			BufferBytes:     1 << 20, // ample: no evictions, flash moves only on Sync
			RBoxBytes:       256 << 10,
			Engine:          engine,
			Obs:             obs.New(0),
		})
		if err != nil {
			t.Fatal(err)
		}
		if inj != nil {
			sys.Flash.SetInjector(inj)
		}
		return sys
	}
	// The workload: each batch of mutations ends in a sync. Removes take
	// low-numbered files, so every later byte of the image shifts.
	created := 0
	batches := []func(sys *SolidStateSystem) error{
		func(sys *SolidStateSystem) error { return nil }, // the empty tree: a one-block image
		func(sys *SolidStateSystem) (err error) { // 420 files: an image of several blocks
			for ; created < 420 && err == nil; created++ {
				err = sys.Create(name(created))
			}
			return err
		},
		func(sys *SolidStateSystem) (err error) { // a frame in the log's first block
			for i := 0; i < 40 && err == nil; i++ {
				err = sys.Remove(name(i))
			}
			return err
		},
		func(sys *SolidStateSystem) (err error) { // sizes and mtimes move; some data too
			for i := 40; i < 70 && err == nil; i++ {
				err = sys.FS.Truncate("/"+name(i), int64(100*i))
			}
			for i := 70; i < 80 && err == nil; i++ {
				_, err = sys.WriteAt(name(i), 0, bytes.Repeat([]byte{byte(i)}, 600))
			}
			return err
		},
		func(sys *SolidStateSystem) (err error) { // this frame spills into the second log block
			for ; created < 450 && err == nil; created++ {
				err = sys.Create(name(created))
			}
			return err
		},
		func(sys *SolidStateSystem) error { return nil }, // nothing to write
		func(sys *SolidStateSystem) (err error) {
			for i := 100; i < 280 && err == nil; i++ {
				err = sys.Remove(name(i))
			}
			return err
		},
		func(sys *SolidStateSystem) (err error) { // the log would outgrow the image: fold
			for ; created < 540 && err == nil; created++ {
				err = sys.Create(name(created))
			}
			return err
		},
		func(sys *SolidStateSystem) (err error) { // a frame on the new generation
			for i := 300; i < 310 && err == nil; i++ {
				err = sys.FS.Truncate("/"+name(i), 7)
			}
			return err
		},
	}
	// replay runs the batches, recording the namespace each sync was
	// called on; it stops at the power cut. acked is how many syncs returned.
	replay := func(sys *SolidStateSystem) (states []namespace, acked int, err error) {
		created = 0
		for i, batch := range batches {
			sys.Clock().Advance(1 << 20)
			if err := batch(sys); err != nil {
				return nil, 0, fmt.Errorf("batch %d: %w", i, err)
			}
			states = append(states, list(sys))
			if err := sys.Sync(); errors.Is(err, flash.ErrPowerCut) {
				return states, acked, nil
			} else if err != nil {
				return nil, 0, fmt.Errorf("sync %d: %w", i, err)
			}
			acked++
		}
		return states, acked, nil
	}

	// Reference run: count the destructive ops and check the workload
	// takes the checkpoint shapes it is here for.
	ref := newSys(nil)
	series := func(name, kind string) int64 {
		lbl := obs.Labels{"layer": "fs"}
		if kind != "" {
			lbl["kind"] = kind
			return ref.cfg.Obs.Registry.Counter(name, lbl).Value()
		}
		return ref.cfg.Obs.Registry.Gauge(name, lbl).Value()
	}
	created = 0
	bs := int64(ref.FS.BlockBytes())
	var spills int
	for i, batch := range batches {
		ref.Clock().Advance(1 << 20)
		if err := batch(ref); err != nil {
			t.Fatalf("reference run, batch %d: %v", i, err)
		}
		logBefore, framesBefore := series("checkpoint_log_bytes", ""), series("checkpoints_total", "frame")
		if err := ref.Sync(); err != nil {
			t.Fatalf("reference run, sync %d: %v", i, err)
		}
		if series("checkpoints_total", "frame") > framesBefore && logBefore%bs != 0 &&
			logBefore/bs != (series("checkpoint_log_bytes", "")-1)/bs {
			spills++
		}
	}
	if images, frames, empty := series("checkpoints_total", "image"), series("checkpoints_total", "frame"), series("checkpoints_total", "empty"); images != 3 || frames != 5 || empty != 1 || spills < 2 ||
		series("checkpoint_bytes_total", "image") < 3*bs {
		t.Fatalf("the workload took %d images, %d frames (%d spilling into a second block) and %d empty checkpoints over %d image bytes: want 3, 5 (at least 2), 1 and a multi-block image",
			images, frames, spills, empty, series("checkpoint_bytes_total", "image"))
	}
	total := ref.Flash.DestructiveOps()
	t.Logf("destructive ops %d", total)

	for idx := int64(0); idx < total; idx++ {
		for _, fate := range []flash.Outcome{flash.CutBefore, flash.CutDuring, flash.CutAfter} {
			sys := newSys(&flash.CutAt{Index: idx, Fate: fate})
			states, acked, err := replay(sys)
			if err != nil {
				t.Fatalf("op %d fate %d: %v", idx, fate, err)
			}
			if !sys.Flash.Lost() {
				continue // the cut fell on the run's last op, after its effect
			}
			sys.DRAM.PowerFail()
			rec, err := sys.RemountAfterPowerFailure()
			if err != nil {
				t.Fatalf("op %d fate %d (sync %d in flight): remount: %v", idx, fate, acked, err)
			}
			// What may mount: the last acknowledged sync's namespace (the
			// empty tree before the first), or the in-flight one's.
			allowed := []namespace{{}}
			if acked > 0 {
				allowed[0] = states[acked-1]
			}
			if acked < len(states) {
				allowed = append(allowed, states[acked])
			}
			got := list(rec)
			if !same(got, allowed[0]) && !same(got, allowed[len(allowed)-1]) {
				t.Fatalf("op %d fate %d (sync %d in flight): the recovered namespace of %d names is neither the last acknowledged sync's (%d names) nor the in-flight one's (%d)",
					idx, fate, acked, len(got), len(allowed[0]), len(allowed[len(allowed)-1]))
			}
			// The recovered card goes on working, and what it syncs next
			// survives a second failure — with the generations the first
			// remount brought back from their trims still lying about.
			if err := rec.Create("after"); err != nil {
				t.Fatalf("op %d fate %d: create after remount: %v", idx, fate, err)
			}
			want := list(rec)
			if err := rec.Sync(); err != nil {
				t.Fatalf("op %d fate %d: sync after remount: %v", idx, fate, err)
			}
			rec.DRAM.PowerFail()
			again, err := rec.RemountAfterPowerFailure()
			if err != nil {
				t.Fatalf("op %d fate %d: second remount: %v", idx, fate, err)
			}
			if !same(list(again), want) {
				t.Fatalf("op %d fate %d: the second remount lost the sync taken after the first", idx, fate)
			}
		}
	}
}

func firstDiff(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return fmt.Sprint(i)
		}
	}
	return "length"
}
