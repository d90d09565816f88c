package coyote

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// uncalledExports are the exported package-level functions kept although no
// non-test file names them. Each is kept on purpose, for the reason given;
// everything else exported must have a caller outside the tests.
var uncalledExports = map[string]string{
	"gpopt.Objective":        "the unsmoothed loss the optimizer tests check Run's return value against",
	"lp.ReadMPS":             "reads the testdata/mps stress corpus and is the FuzzReadMPS target",
	"lp.WriteMPS":            "round-trips the testdata/mps corpus in the MPS tests",
	"mcf.CheckDual":          "the dual certificate the crash-basis and bound-pruning tests check",
	"sweep.WriteGolden":      "regenerates testdata/golden under TestGoldenCorpus -update",
	"topo.MustLoad":          "loads corpus topologies in tests without error plumbing",
	"coyote.NewDemandMatrix": "the public way to build a DemandMatrix entry by entry",
}

// TestEveryExportIsCalled fails on an exported package-level function (one
// without a receiver) that no non-test Go file of the module names, unless
// uncalledExports lists it; it also fails on a stale uncalledExports entry.
// A reference is a qualified name through an import of the declaring
// package, or a bare name in a file of that package (a recursive call to
// itself does not count). Test files, testdata and dot-directories are not
// read.
func TestEveryExportIsCalled(t *testing.T) {
	const module = "github.com/coyote-te/coyote"
	type file struct {
		dir string
		f   *ast.File
	}
	var files []file
	pkgName := map[string]string{} // directory → package name
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		files = append(files, file{dir, f})
		pkgName[dir] = f.Name.Name
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// exports holds each exported function's declaration position.
	exports := map[export]token.Position{}
	for _, fl := range files {
		for _, decl := range fl.f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.IsExported() {
				exports[export{fl.dir, fn.Name.Name}] = fset.Position(fn.Pos())
			}
		}
	}

	called := map[export]bool{}
	for _, fl := range files {
		imports := map[string]string{} // local name → directory
		for _, imp := range fl.f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if path != module && !strings.HasPrefix(path, module+"/") {
				continue
			}
			dir := "."
			if path != module {
				dir = path[len(module)+1:]
			}
			local := pkgName[dir]
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = dir
		}
		for _, decl := range fl.f.Decls {
			// A function's own name, and a recursive call to it, are not
			// references.
			var declared *ast.Ident
			self := ""
			if fn, ok := decl.(*ast.FuncDecl); ok {
				declared = fn.Name
				if fn.Recv == nil {
					self = fn.Name.Name
				}
			}
			var visit func(ast.Node) bool
			visit = func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.SelectorExpr:
					if id, ok := x.X.(*ast.Ident); ok {
						if dir, ok := imports[id.Name]; ok {
							called[export{dir, x.Sel.Name}] = true
						}
						return false
					}
					// A field or method name never names a function of this
					// package: walk only the operand.
					ast.Inspect(x.X, visit)
					return false
				case *ast.Ident:
					if x != declared && x.Name != self {
						called[export{fl.dir, x.Name}] = true
					}
				}
				return true
			}
			ast.Inspect(decl, visit)
		}
	}

	var uncalled []string
	kept := map[string]bool{}
	for e, pos := range exports {
		if called[e] {
			continue
		}
		name := pkgName[e.dir] + "." + e.name
		if _, ok := uncalledExports[name]; ok {
			kept[name] = true
			continue
		}
		uncalled = append(uncalled, pos.String()+": "+name)
	}
	sort.Strings(uncalled)
	for _, u := range uncalled {
		t.Errorf("%s is exported but no non-test file names it: delete it, or list it in uncalledExports with the reason it stays", u)
	}
	var stale []string
	for name := range uncalledExports {
		if !kept[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		t.Errorf("uncalledExports lists %s, which is not an uncalled exported function: drop the entry", name)
	}
}

// export names one package-level function: the directory of its package,
// relative to the module root, and the function name.
type export struct{ dir, name string }
