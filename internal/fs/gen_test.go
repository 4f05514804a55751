package fs

import (
	"errors"
	"testing"
)

// TestGenMovesWhenAPathGoes pins the generation rule a handle relies on:
// Gen moves on a Remove of any link and on a Rename of the inode or of a
// directory above it, and on nothing that leaves every path in place —
// writes, truncates, a Link, a Remove or Rename of something else.
func TestGenMovesWhenAPathGoes(t *testing.T) {
	r := newFS(t)
	for _, p := range []string{"/d", "/d/e", "/other"} {
		if err := r.fs.Mkdir(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []string{"/f", "/d/e/g", "/x"} {
		if err := r.fs.Create(p); err != nil {
			t.Fatal(err)
		}
	}
	node := func(p string) *Inode {
		t.Helper()
		n, ok := r.fs.Lookup(p)
		if !ok {
			t.Fatalf("%s not found", p)
		}
		return n
	}
	f, d, e, g := node("/f"), node("/d"), node("/d/e"), node("/d/e/g")
	gens := func() [4]uint64 { return [4]uint64{f.Gen(), d.Gen(), e.Gen(), g.Gen()} }
	step := func(what string, op func() error, moved ...*Inode) {
		t.Helper()
		before := gens()
		if err := op(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		for i, n := range []*Inode{f, d, e, g} {
			want := before[i]
			for _, m := range moved {
				if m == n {
					want++
				}
			}
			if got := n.Gen(); got != want {
				t.Errorf("%s: inode %d at gen %d, want %d", what, n.Ino, got, want)
			}
		}
	}
	step("write", func() error { _, err := r.fs.WriteAt("/f", 10, []byte("data")); return err })
	step("truncate", func() error { return r.fs.Truncate("/f", 2) })
	step("truncate to zero", func() error { return r.fs.Truncate("/f", 0) })
	step("link", func() error { return r.fs.Link("/f", "/d/f2") })
	step("remove another name", func() error { return r.fs.Remove("/x") })
	step("rename another name", func() error { return r.fs.Rename("/other", "/other2") })
	step("remove one of two links", func() error { return r.fs.Remove("/d/f2") }, f)
	step("rename a file", func() error { return r.fs.Rename("/f", "/f3") }, f)
	step("rename a directory", func() error { return r.fs.Rename("/d", "/d2") }, d, e, g)
	step("rename into a subdirectory", func() error { return r.fs.Rename("/d2/e/g", "/d2/g") }, g)
	step("a refused remove", func() error {
		if err := r.fs.Remove("/d2"); !errors.Is(err, ErrNotEmpty) {
			return errors.New("removed a directory that is not empty")
		}
		return nil
	})
	step("remove the last link", func() error { return r.fs.Remove("/f3") }, f)

	// The freed inode comes back for the next create with its generation
	// moved on, so no handle taken before the remove matches it.
	gen := f.Gen()
	if err := r.fs.Create("/new"); err != nil {
		t.Fatal(err)
	}
	if n := node("/new"); n != f || n.Gen() != gen {
		t.Fatalf("recycled node %p at gen %d, want %p at gen %d", n, n.Gen(), f, gen)
	}
}

// TestLeafOpsMatchPathOps: the entry points that take a directory and a
// name do what the path forms do, and report a bare sentinel where the
// path forms name the path; a miss allocates nothing.
func TestLeafOpsMatchPathOps(t *testing.T) {
	r := newFS(t)
	if err := r.fs.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	d, _ := r.fs.Lookup("/d")
	n, err := r.fs.CreateAt(d, "a", KindFile)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := r.fs.Lookup("/d/a"); !ok || got != n || n.Kind != KindFile || n.Nlink != 1 {
		t.Fatalf("CreateAt made %+v; Lookup finds %p, %v", n, got, ok)
	}
	if got, ok := r.fs.LookupAt(d, "a"); !ok || got != n {
		t.Fatalf("LookupAt = %p, %v", got, ok)
	}
	if _, ok := r.fs.LookupAt(n, "a"); ok {
		t.Fatal("LookupAt found an entry in a file")
	}
	if _, err := r.fs.CreateAt(d, "a", KindFile); err != ErrExist {
		t.Fatalf("CreateAt over a name = %v, want ErrExist itself", err)
	}
	if _, err := r.fs.CreateAt(n, "b", KindFile); err != ErrNotDir {
		t.Fatalf("CreateAt in a file = %v, want ErrNotDir itself", err)
	}
	for _, bad := range []string{"", ".", "..", "x/y"} {
		if _, err := r.fs.CreateAt(d, bad, KindDir); !errors.Is(err, ErrBadPath) {
			t.Errorf("CreateAt(%q) = %v, want ErrBadPath", bad, err)
		}
	}
	if err := r.fs.RemoveAt(d, "gone"); err != ErrNotExist {
		t.Fatalf("RemoveAt of a missing name = %v, want ErrNotExist itself", err)
	}
	if !raceEnabled {
		if allocs := testing.AllocsPerRun(100, func() { _ = r.fs.RemoveAt(d, "gone") }); allocs != 0 {
			t.Errorf("a RemoveAt miss allocated %.1f times", allocs)
		}
	}
	if err := r.fs.RemoveAt(d, "a"); err != nil {
		t.Fatal(err)
	}
	if r.fs.Exists("/d/a") {
		t.Fatal("RemoveAt left the name")
	}

	// The path forms keep naming the path.
	if err := r.fs.Create("/f"); err != nil {
		t.Fatal(err)
	}
	if err := r.fs.Create("/d/x"); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		err  error
		want string
	}{
		{r.fs.Create("/f"), `fs: file exists: "/f"`},
		{r.fs.Remove("/gone"), `fs: no such file or directory: "/gone"`},
		{r.fs.Remove("/d"), `fs: directory not empty: "/d"`},
		{r.fs.Mkdir("/d/x"), `fs: file exists: "/d/x"`},
	} {
		if c.err == nil || c.err.Error() != c.want {
			t.Errorf("got %v, want %s", c.err, c.want)
		}
	}
}
