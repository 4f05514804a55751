package ssmobile_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// stdlibMethods are method names a type exports to satisfy an interface
// of the standard library (fmt, errors, sort, container/heap, net/http),
// which calls them without naming them in this module.
var stdlibMethods = map[string]bool{
	"Error": true, "String": true, "Unwrap": true, "Is": true, "As": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"ServeHTTP": true,
}

// surfaceKeeps are exports under internal/ that only tests call, kept on
// purpose, each with its reason. Keys are package.Func or
// package.Type.Method, the package named by its last path element.
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
	"fs.FS.MapFileShared":   "§3.2's shared mappings with msync, exercised only by its tests",
}

// TestEveryExportHasACaller holds the tree's surface to what its code
// uses: every exported function or method declared in a non-test file
// under internal/ must be named by some non-test file of the module
// (bench/, cmd/ and examples/ count) other than at its declaration. The
// check goes by name, so a name declared twice is used if either use
// appears; an export only tests call belongs in the test's package
// (export_test.go) or in surfaceKeeps with its reason.
func TestEveryExportHasACaller(t *testing.T) {
	type decl struct {
		key string
		pos token.Position
	}
	fset := token.NewFileSet()
	var decls []decl
	declIdents := map[*ast.Ident]bool{}
	uses := map[string]int{}
	var files []*ast.File
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		if !strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			return nil
		}
		pkg := filepath.Base(filepath.Dir(path))
		for _, dl := range f.Decls {
			fn, ok := dl.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			key := pkg + "." + fn.Name.Name
			if fn.Recv != nil {
				if stdlibMethods[fn.Name.Name] {
					continue
				}
				key = pkg + "." + recvType(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			declIdents[fn.Name] = true
			decls = append(decls, decl{key, fset.Position(fn.Name.Pos())})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declIdents[id] {
				uses[id.Name]++
			}
			return true
		})
	}
	if len(decls) == 0 {
		t.Fatal("no exported declarations found under internal/; run from the module root")
	}
	var unused []string
	kept := map[string]bool{}
	for _, d := range decls {
		name := d.key[strings.LastIndex(d.key, ".")+1:]
		if uses[name] > 0 {
			continue
		}
		if _, ok := surfaceKeeps[d.key]; ok {
			kept[d.key] = true
			continue
		}
		unused = append(unused, d.pos.String()+": "+d.key)
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s is exported but no non-test code names it", u)
	}
	for key := range surfaceKeeps {
		if !kept[key] {
			t.Errorf("surfaceKeeps lists %s, which is gone or has a caller now", key)
		}
	}
}

// recvType names a method's receiver type without pointer or type
// parameters.
func recvType(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvType(x.X)
	case *ast.IndexExpr:
		return recvType(x.X)
	case *ast.IndexListExpr:
		return recvType(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}
