package ssmobile_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// stdlibMethods are method names a type exports to satisfy an interface
// of the standard library (fmt, errors, sort, container/heap, net/http,
// encoding/json), which calls them without naming them in this module.
var stdlibMethods = map[string]bool{
	"Error": true, "String": true, "Unwrap": true, "Is": true, "As": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"ServeHTTP": true, "MarshalJSON": true,
}

// surfaceKeeps are declarations under internal/ that only tests use,
// kept on purpose, each with its reason. Keys are package.Name or
// package.Type.Name, the package named by its last path element.
var surfaceKeeps = map[string]string{
	"dram.Pack.Dead":        "§2's primary and backup battery: the pack's state, exercised only by its tests",
	"dram.Pack.OnBackup":    "§2's primary and backup battery: the pack's state, exercised only by its tests",
	"dram.Pack.DrainIdle":   "§2's primary and backup battery: idle drain, exercised only by its tests",
	"dram.Pack.SwapPrimary": "§2's primary and backup battery: the primary swap, exercised only by its tests",
	"vm.VM.Unmap":           "§3.2's protection domains: unmapping, exercised only by its tests",
	"vm.VM.Protect":         "§3.2's protection domains: changing a mapping's rights, exercised only by its tests",
	"vm.VM.Resident":        "§3.2's optional swap: residency, observed only by its tests",
	"vm.VM.InFlash":         "§3.2's optional swap: a swapped-out page, observed only by its tests",
	"vm.VM.FramesFree":      "§3.2's optional swap: frame pressure, observed only by its tests",
	"vm.NewDeviceSwapper":   "§3.2's optional swap to flash, exercised only by its tests",
	"vm.Config.Swap":        "§3.2's optional swap: the backing store, attached only by its tests",
	"fs.FS.MapFileShared":   "§3.2's shared mappings with msync, exercised only by its tests",
	"workload.Config.Arrival": "0 (open-loop) in every non-test write; bench/workloads.go names it, " +
		"and only a change to the benchmark may drop that line (ROADMAP 10(7))",
}

// TestEveryExportHasACaller holds the tree's surface to what its code
// uses. It type-checks every package of the module from its non-test
// files and fails on a declaration under internal/ that no non-test
// file uses (an exported function or method, an interface method, or
// an unexported package-level function, type, variable or constant),
// and on an exported field of a *Config type that no non-test code sets
// outside the type's own methods (a one-value setting, which is a
// constant). A helper only tests need goes in that package's
// export_test.go; a kept one goes in surfaceKeeps with its reason.
func TestEveryExportHasACaller(t *testing.T) {
	start := time.Now()
	pkgs := listPackages(t, "./...")
	findings, err := surfaceFindings(pkgs)
	if err != nil {
		t.Fatal(err)
	}
	kept := map[string]bool{}
	for _, f := range findings {
		if _, ok := surfaceKeeps[f.key]; ok {
			kept[f.key] = true
			continue
		}
		t.Errorf("%s: %s %s", f.pos, f.key, f.why)
	}
	for key := range surfaceKeeps {
		if !kept[key] {
			t.Errorf("surfaceKeeps lists %s, which is gone or used now", key)
		}
	}
	t.Logf("guard ran in %v", time.Since(start).Round(time.Millisecond))
}

// TestSurfaceGuard runs the guard's analysis on the fixture module under
// testdata/surface, whose declarations are each used or not in a way the
// guard must tell apart.
func TestSurfaceGuard(t *testing.T) {
	findings, err := surfaceFindings(listPackages(t, "./testdata/surface/..."))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, f.key)
	}
	// a.Config.Width and Lanes pass: Width is set from a variable, Lanes
	// to 2 by one call and left out (0) by the other.
	want := []string{
		"a.Config.Depth", // only withDefaults sets it
		"a.Config.Unit",  // only New, defaulting its parameter, sets it
		"a.Config.Ways",  // every call sets it to 8
		"a.Stack.Size",   // named elsewhere, but only a use of Queue.Size is
		"a.helper",       // unexported, and used only by a test
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("guard reports %q, want %q", got, want)
	}
}

// listedPkg is the part of `go list -json` the guard reads.
type listedPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
	Export     string // a standard package's export data
}

// listPackages lists the packages matching pattern and every package
// they import, in dependency order, with each standard package's export
// data from one more `go list` (the default importer runs one per
// package).
func listPackages(t *testing.T, pattern string) []listedPkg {
	t.Helper()
	pkgs := goList(t, "-deps", pattern)
	var std []string
	for _, p := range pkgs {
		if p.Standard {
			std = append(std, p.ImportPath)
		}
	}
	export := map[string]string{}
	for _, p := range goList(t, append([]string{"-export"}, std...)...) {
		export[p.ImportPath] = p.Export
	}
	for i := range pkgs {
		pkgs[i].Export = export[pkgs[i].ImportPath]
	}
	return pkgs
}

// goList runs `go list -json` with args.
func goList(t *testing.T, args ...string) []listedPkg {
	t.Helper()
	out, err := exec.Command("go", append([]string{"list", "-json"}, args...)...).Output()
	if err != nil {
		t.Fatalf("go list %s: %v", strings.Join(args, " "), err)
	}
	var pkgs []listedPkg
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// finding is one declaration the guard reports.
type finding struct {
	key string // package.Name or package.Type.Name
	pos token.Position
	why string
}

// decl is a declaration the guard checks, under its key.
type decl struct {
	obj types.Object
	key string
}

// surfaceFindings type-checks the non-standard packages of pkgs, which
// must be in dependency order, and returns, sorted by key, every
// declaration under an internal/ directory that no file of pkgs uses and
// every exported field of a *Config type there that none sets outside
// the type's own methods.
func surfaceFindings(pkgs []listedPkg) ([]finding, error) {
	fset := token.NewFileSet()
	export := map[string]string{}
	for _, p := range pkgs {
		export[p.ImportPath] = p.Export
	}
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(export[path])
	})
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})}
	info := &types.Info{
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Types:      map[ast.Expr]types.TypeAndValue{},
	}
	var files []*ast.File
	var decls, fields []decl
	fieldOwner := map[*types.Var]*types.TypeName{}
	var concrete []types.Type // every named non-interface type, and its pointer
	for _, p := range pkgs {
		if p.Standard {
			continue
		}
		var pfiles []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			pfiles = append(pfiles, f)
		}
		pkg, err := conf.Check(p.ImportPath, fset, pfiles, info)
		if err != nil {
			return nil, err
		}
		checked[p.ImportPath] = pkg
		files = append(files, pfiles...)
		guarded := strings.HasPrefix(p.ImportPath, "internal/") || strings.Contains(p.ImportPath, "/internal/")
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			key := pkg.Name() + "." + name
			if _, isFunc := obj.(*types.Func); guarded && (isFunc || !obj.Exported()) && name != "_" {
				decls = append(decls, decl{obj, key})
			}
			if _, isType := obj.(*types.TypeName); !isType {
				continue
			}
			named, ok := obj.Type().(*types.Named)
			if !ok {
				continue
			}
			if iface, ok := named.Underlying().(*types.Interface); ok {
				for i := 0; guarded && i < iface.NumExplicitMethods(); i++ {
					m := iface.ExplicitMethod(i)
					decls = append(decls, decl{m, key + "." + m.Name()})
				}
				continue
			}
			concrete = append(concrete, named, types.NewPointer(named))
			if !guarded {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() && !stdlibMethods[m.Name()] {
					decls = append(decls, decl{m, key + "." + m.Name()})
				}
			}
			if st, ok := named.Underlying().(*types.Struct); ok && strings.HasSuffix(name, "Config") {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() && !f.Embedded() {
						fields = append(fields, decl{f, key + "." + f.Name()})
						fieldOwner[f] = named.Obj()
					}
				}
			}
		}
	}

	used := map[types.Object]bool{}
	for _, obj := range info.Uses {
		used[origin(obj)] = true
	}
	for _, sel := range info.Selections {
		used[origin(sel.Obj())] = true
	}
	// A concrete method implements every used method of an interface its
	// type satisfies: a call through the interface reaches it.
	ifaces := map[*types.Interface][]*types.Func{}
	for obj := range used {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Type().(*types.Signature).Recv() == nil {
			continue
		}
		if iface, ok := fn.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface); ok {
			ifaces[iface] = append(ifaces[iface], fn)
		}
	}
	for _, typ := range concrete {
		for iface, methods := range ifaces {
			if !types.Implements(typ, iface) {
				continue
			}
			for _, m := range methods {
				if obj, _, _ := types.LookupFieldOrMethod(typ, false, m.Pkg(), m.Name()); obj != nil {
					used[origin(obj)] = true
				}
			}
		}
	}
	writes := configWrites(files, info, fieldOwner)

	var findings []finding
	for _, d := range decls {
		if !used[d.obj] {
			findings = append(findings, finding{d.key, fset.Position(d.obj.Pos()), "is declared but no non-test code uses it"})
		}
	}
	for _, d := range fields {
		switch w := writes[d.obj.(*types.Var)]; {
		case w == nil || !w.set:
			findings = append(findings, finding{d.key, fset.Position(d.obj.Pos()),
				"is set by no non-test code but its type's methods and the functions handed it: a one-value setting is a constant"})
		case !w.varied:
			findings = append(findings, finding{d.key, fset.Position(d.obj.Pos()),
				fmt.Sprintf("is %v in every non-test write: a one-value setting is a constant", w.value)})
		}
	}
	sort.Slice(findings, func(i, j int) bool { return findings[i].key < findings[j].key })
	return findings, nil
}

// fieldWrites is what non-test code outside a *Config type's methods
// writes into one of its fields.
type fieldWrites struct {
	set    bool           // some write names the field
	seen   bool           // some write is counted, a literal leaving the field out among them
	value  constant.Value // the first counted write's value; nil for nil or a zero struct
	varied bool           // some write gives another value, or one that is not constant
}

// add counts a write of val; isConst is false when the value written is
// not a constant.
func (w *fieldWrites) add(val constant.Value, isConst bool) {
	switch {
	case !w.seen:
		w.seen, w.value = true, val
	case !sameValue(w.value, val):
		w.varied = true
	}
	w.varied = w.varied || !isConst
}

// sameValue reports whether two written constants are equal; nil is
// the zero of a type with no constants.
func sameValue(a, b constant.Value) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	numeric := func(v constant.Value) bool {
		k := v.Kind()
		return k == constant.Int || k == constant.Float || k == constant.Complex
	}
	if a.Kind() != b.Kind() && !(numeric(a) && numeric(b)) {
		return false
	}
	return constant.Compare(a, token.EQL, b)
}

// zeroValue is the value a literal that leaves out a field of type t
// writes.
func zeroValue(t types.Type) constant.Value {
	b, ok := t.Underlying().(*types.Basic)
	switch {
	case !ok:
		return nil
	case b.Info()&types.IsString != 0:
		return constant.MakeString("")
	case b.Info()&types.IsBoolean != 0:
		return constant.MakeBool(false)
	}
	return constant.MakeInt64(0)
}

// configWrites returns what files write into the fields of owner, by a
// literal key, an unkeyed literal, an assignment, an increment or taking
// the field's address, outside the methods of the field's own type. A
// keyed literal writes the zero value of each field it leaves out. A
// write through a parameter of the enclosing function is a callee
// defaulting what it was handed, and is not counted.
func configWrites(files []*ast.File, info *types.Info, owner map[*types.Var]*types.TypeName) map[*types.Var]*fieldWrites {
	writes := map[*types.Var]*fieldWrites{}
	for _, file := range files {
		for _, decl := range file.Decls {
			var recv types.Object // the type whose method decl is
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv != nil {
				recv = recvTypeName(info, fn.Recv.List[0].Type)
			}
			var params []*ast.FieldList // of decl and every function literal in it
			ast.Inspect(decl, func(n ast.Node) bool {
				if ft, ok := n.(*ast.FuncType); ok && ft.Params != nil {
					params = append(params, ft.Params)
				}
				return true
			})
			mark := func(v *types.Var, val constant.Value, isConst, named bool) {
				tn, ok := owner[v]
				if !ok || tn == recv {
					return
				}
				w := writes[v]
				if w == nil {
					w = &fieldWrites{}
					writes[v] = w
				}
				w.set = w.set || named
				w.add(val, isConst)
			}
			// write counts a write of val into an assigned expression and
			// a non-constant one into every field selected on the way to
			// it (setting c.Flash.Blocks sets c.Flash too), unless the
			// expression is reached through a parameter.
			write := func(e ast.Expr, val constant.Value, isConst bool) {
				var fields []*types.Var // selected along e, outermost first
				direct := true          // fields[0] is e itself, not indexed or dereferenced
			walk:
				for {
					switch x := e.(type) {
					case *ast.SelectorExpr:
						if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
							fields = append(fields, sel.Obj().(*types.Var).Origin())
						}
						e = x.X
					case *ast.IndexExpr:
						direct = direct && len(fields) > 0
						e = x.X
					case *ast.StarExpr:
						direct = direct && len(fields) > 0
						e = x.X
					case *ast.ParenExpr:
						e = x.X
					case *ast.Ident:
						if obj := info.Uses[x]; obj != nil {
							for _, p := range params {
								if p.Pos() <= obj.Pos() && obj.Pos() < p.End() {
									return
								}
							}
						}
						break walk
					default:
						break walk
					}
				}
				for i, f := range fields {
					if i == 0 && direct {
						mark(f, val, isConst, true)
					} else {
						mark(f, nil, false, true)
					}
				}
			}
			valueOf := func(e ast.Expr) (constant.Value, bool) {
				tv := info.Types[e]
				return tv.Value, tv.Value != nil || tv.IsNil()
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.AssignStmt:
					if x.Tok == token.DEFINE {
						break
					}
					for i, lhs := range x.Lhs {
						if x.Tok == token.ASSIGN && len(x.Rhs) == len(x.Lhs) {
							val, ok := valueOf(x.Rhs[i])
							write(lhs, val, ok)
						} else {
							write(lhs, nil, false)
						}
					}
				case *ast.IncDecStmt:
					write(x.X, nil, false)
				case *ast.UnaryExpr:
					if x.Op == token.AND {
						write(x.X, nil, false)
					}
				case *ast.CompositeLit:
					st, ok := info.Types[x].Type.Underlying().(*types.Struct)
					if !ok {
						break
					}
					keyed := map[*types.Var]bool{}
					for i, elt := range x.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								if v, ok := info.Uses[id].(*types.Var); ok {
									val, ok := valueOf(kv.Value)
									mark(v.Origin(), val, ok, true)
									keyed[v.Origin()] = true
								}
							}
						} else if i < st.NumFields() {
							val, ok := valueOf(elt)
							mark(st.Field(i).Origin(), val, ok, true)
							keyed[st.Field(i).Origin()] = true
						}
					}
					for i := 0; i < st.NumFields(); i++ {
						if f := st.Field(i).Origin(); !keyed[f] {
							mark(f, zeroValue(f.Type()), true, false)
						}
					}
				}
				return true
			})
		}
	}
	return writes
}

// recvTypeName is the type a method's receiver expression names.
func recvTypeName(info *types.Info, e ast.Expr) types.Object {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvTypeName(info, x.X)
	case *ast.ParenExpr:
		return recvTypeName(info, x.X)
	case *ast.Ident:
		return info.Uses[x]
	}
	return nil
}

// origin is the generic declaration behind an instantiated object.
func origin(obj types.Object) types.Object {
	switch x := obj.(type) {
	case *types.Func:
		return x.Origin()
	case *types.Var:
		return x.Origin()
	}
	return obj
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
