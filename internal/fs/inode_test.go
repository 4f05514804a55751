package fs

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"ssmobile/internal/engine/backends"
)

// sameFS fails unless the twins agree on virtual time, on their metadata
// to the byte (sizes and times included) and on every file's bytes.
func sameFS(t *testing.T, when string, a, b *rig, files []string) {
	t.Helper()
	if a.clock.Now() != b.clock.Now() {
		t.Fatalf("%s: clocks %v and %v", when, a.clock.Now(), b.clock.Now())
	}
	if sa, sb := encodeState(a.fs.snapshotState()), encodeState(b.fs.snapshotState()); !bytes.Equal(sa, sb) {
		t.Fatalf("%s: metadata differs\n%s", when, diffStates(t, sa, sb))
	}
	for _, p := range files {
		da, errA := a.fs.ReadFile(p)
		db, errB := b.fs.ReadFile(p)
		if errStr(errA) != errStr(errB) || !bytes.Equal(da, db) {
			t.Fatalf("%s: %s reads %d bytes (%v) and %d bytes (%v)", when, p, len(da), errA, len(db), errB)
		}
	}
}

func errStr(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestInodeOpsMatchPathOps drives twin file systems with one seeded
// sequence of reads, writes and truncates: one twin through the path
// API, the other through Lookup and the inode forms, as the server does.
// Extents cross blocks, leave holes, stop short of a block and grow the
// file; names are removed and made again, so a looked-up node is often a
// recycled inode. After every op the twins return the same count, bytes
// and error, and agree on time, metadata and contents; after a sync they
// remount from flash and agree again.
func TestInodeOpsMatchPathOps(t *testing.T) {
	for _, eng := range backends.Names {
		t.Run(eng, func(t *testing.T) {
			a, b := newFSOn(t, eng), newFSOn(t, eng)
			files := []string{"/f0", "/f1", "/f2", "/f3", "/f4"}
			for _, r := range []*rig{a, b} {
				for _, p := range append([]string{"/d"}, files...) {
					mk := r.fs.Create
					if p == "/d" {
						mk = r.fs.Mkdir
					}
					if err := mk(p); err != nil {
						t.Fatal(err)
					}
				}
			}
			targets := append([]string{"/d", "/gone", "/f0/x"}, files...)
			bs := a.fs.BlockBytes()
			rng := rand.New(rand.NewSource(37))
			extent := func(size int64) int64 {
				switch rng.Intn(8) {
				case 0:
					return 0
				case 1:
					return int64(bs - 1 + rng.Intn(3))
				case 2:
					return size
				case 3:
					return size + int64(2*bs+rng.Intn(bs)) // a hole
				case 4:
					return -1
				default:
					return int64(rng.Intn(6 * bs))
				}
			}
			for op := 0; op < 1500; op++ {
				p := targets[rng.Intn(len(targets))]
				var size int64
				if n, ok := a.fs.Lookup(p); ok {
					size = n.Size
				}
				off := extent(size)
				node, ok := b.fs.Lookup(p)
				var na, nb int
				var errA, errB error
				var what string
				switch k := rng.Intn(10); {
				case k < 4:
					what = "read"
					n := max(0, extent(size-max(off, 0)))
					bufA, bufB := make([]byte, n), make([]byte, n)
					na, errA = a.fs.ReadAt(p, off, bufA)
					if ok {
						nb, errB = b.fs.ReadAtInode(node, off, bufB)
					}
					if !bytes.Equal(bufA, bufB) {
						t.Fatalf("op %d: read %s at %d: the twins read different bytes", op, p, off)
					}
				case k < 8:
					what = "write"
					data := make([]byte, max(0, extent(0)))
					rng.Read(data)
					na, errA = a.fs.WriteAt(p, off, data)
					if ok {
						nb, errB = b.fs.WriteAtInode(node, off, data)
					}
				case k < 9:
					what = "truncate"
					errA = a.fs.Truncate(p, off)
					if ok {
						errB = b.fs.TruncateInode(node, off)
					}
				default:
					what = "remove and create"
					if p != "/d" && ok {
						for _, r := range []*rig{a, b} {
							if err := r.fs.Remove(p); err != nil {
								t.Fatal(err)
							}
							if err := r.fs.Create(p); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
				switch {
				case !ok:
					// Lookup misses exactly where the path form fails its walk.
					if !errors.Is(errA, ErrNotExist) && !errors.Is(errA, ErrNotDir) && what != "remove and create" {
						t.Fatalf("op %d: %s %s: Lookup missed but the path form said %v", op, what, p, errA)
					}
				case node.Kind == KindDir:
					// The inode form names the inode, the path form the path.
					if what != "remove and create" && (!errors.Is(errA, ErrIsDir) || !errors.Is(errB, ErrIsDir)) {
						t.Fatalf("op %d: %s on a directory: %v and %v", op, what, errA, errB)
					}
				case na != nb || errStr(errA) != errStr(errB):
					t.Fatalf("op %d: %s %s at %d: path form %d, %v; inode form %d, %v", op, what, p, off, na, errA, nb, errB)
				}
				sameFS(t, "op "+what, a, b, files)
				if op%500 == 499 {
					for _, r := range []*rig{a, b} {
						if err := r.fs.Sync(); err != nil {
							t.Fatal(err)
						}
						r.dram.PowerFail()
						f, lost, err := RecoverAfterPowerFailure(fsConfig(), r.clock, r.sm, r.dram)
						if err != nil || lost != 0 {
							t.Fatalf("op %d: remount lost %d: %v", op, lost, err)
						}
						r.fs = f
					}
					sameFS(t, "after a remount", a, b, files)
				}
			}
		})
	}
}

// TestPathOpsKeepTheirErrors pins the errors the path forms give for a
// directory, a missing name and a file used as a directory, to the byte:
// they resolve once and call the inode forms, and their messages name the
// path as before.
func TestPathOpsKeepTheirErrors(t *testing.T) {
	r := newFS(t)
	if err := r.fs.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := r.fs.Create("/f"); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	ops := map[string]func(p string) error{
		"ReadAt":   func(p string) error { _, err := r.fs.ReadAt(p, 0, buf); return err },
		"WriteAt":  func(p string) error { _, err := r.fs.WriteAt(p, 0, buf); return err },
		"Truncate": func(p string) error { return r.fs.Truncate(p, 4) },
		"ReadFile": func(p string) error { _, err := r.fs.ReadFile(p); return err },
		"Append":   func(p string) error { _, err := r.fs.Append(p, buf); return err },
	}
	cases := []struct {
		path, want string
		is         error
	}{
		{"/d", `fs: is a directory: "/d"`, ErrIsDir},
		{"/gone", `fs: no such file or directory: "/gone"`, ErrNotExist},
		{"/d/gone/x", `fs: no such file or directory: "/d/gone/x"`, ErrNotExist},
		{"/f/x", `fs: not a directory: "/f/x"`, ErrNotDir},
		{"rel", `fs: bad path: "rel" must be absolute`, ErrBadPath},
	}
	for name, op := range ops {
		for _, c := range cases {
			err := op(c.path)
			if !errors.Is(err, c.is) || err.Error() != c.want {
				t.Errorf("%s(%q) = %v, want %s", name, c.path, err, c.want)
			}
		}
	}
	// The inode forms refuse a directory too, naming the inode.
	d, _ := r.fs.Lookup("/d")
	if _, err := r.fs.WriteAtInode(d, 0, buf); !errors.Is(err, ErrIsDir) {
		t.Errorf("WriteAtInode on a directory: %v", err)
	}
	if _, ok := r.fs.Lookup("/gone"); ok {
		t.Error("Lookup found a missing name")
	}
}
