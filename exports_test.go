package coyote

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// uncalledExports are the exported functions and methods kept although no
// non-test file calls them. Each is kept on purpose, for the reason given;
// everything else exported must have a caller outside the tests.
var uncalledExports = map[string]string{
	"gpopt.Objective":        "the unsmoothed loss the optimizer tests check Run's return value against",
	"lp.ReadMPS":             "reads the testdata/mps stress corpus and is the FuzzReadMPS target",
	"lp.WriteMPS":            "round-trips the testdata/mps corpus in the MPS tests",
	"mcf.CheckDual":          "the dual certificate the crash-basis and bound-pruning tests check",
	"sweep.WriteGolden":      "regenerates testdata/golden under TestGoldenCorpus -update",
	"topo.MustLoad":          "loads corpus topologies in tests without error plumbing",
	"coyote.NewDemandMatrix": "the public way to build a DemandMatrix entry by entry",

	"lp.Model.SolveDense":              "the dense oracle every sparse-engine parity test solves against",
	"lp.Model.SetVarBounds":            "the bound edits of the LP fuzz and warm-edit tests",
	"graph.Graph.AddNodes":             "the test graph builder",
	"pdrouting.Routing.Validate":       "checks the §III routing invariants in the tests",
	"dagx.DAG.ContainsShortestPathDAG": "checks the §V-B containment in the tests",
	"demand.Box.Contains":              "the membership test the adversary and box tests check matrices with",
	"maxflow.Network.MinCut":           "the max-flow certificate the max-flow tests check",
	"coyote.Topology.Node":             "public API the README walks through",
	"coyote.Topology.NodeName":         "public API the README walks through",
	"coyote.Topology.Link":             "public API the README walks through",
	"coyote.Session.Config":            "public API the README walks through",
	"coyote.Session.Events":            "public API the README walks through",
}

// TestEveryExportIsCalled fails on an exported function, or a method with an
// exported name on any named type of the module, that no non-test Go file
// calls, unless uncalledExports lists it; it also fails on a stale
// uncalledExports entry. The non-test files of every package are
// type-checked, so a call is what the checker resolves, not a name: a field
// that shares a method's name is not a call of it.
//
// A function or method counts as called when a non-test identifier outside
// its own body resolves to it. A method of a type also counts as called when
// the type implements an interface one of whose same-named methods is called
// that way (Plan.Route through strategy.Apply), or one of the interfaces the
// standard library calls on its own: error, fmt.Stringer, io.Writer,
// http.Handler, http.Flusher and slog.Handler. Test files, testdata and
// dot-directories are not read.
func TestEveryExportIsCalled(t *testing.T) {
	const module = "github.com/coyote-te/coyote"
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // import path → non-test files
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
		pkg := module
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkg += "/" + dir
		}
		files[pkg] = append(files[pkg], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	info := &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}
	imp := &moduleImporter{
		std:     importer.ForCompiler(fset, "source", nil),
		fset:    fset,
		files:   files,
		info:    info,
		checked: map[string]*types.Package{},
	}
	for pkg := range files {
		if _, err := imp.Import(pkg); err != nil {
			t.Fatal(err)
		}
	}

	// exports holds each exported function and method, with its position.
	exports := map[*types.Func]token.Position{}
	for id, obj := range info.Defs {
		fn, ok := obj.(*types.Func)
		if !ok || !fn.Exported() {
			continue
		}
		// A method counts on any named type: an unexported type's exported
		// methods are reached through interfaces, or not at all.
		if recv := fn.Signature().Recv(); recv != nil && receiverNamed(recv.Type()) == nil {
			continue
		}
		exports[fn] = fset.Position(id.Pos())
	}

	// called holds every function and method a non-test identifier resolves
	// to outside its own declaration.
	called := map[*types.Func]bool{}
	for _, pkgFiles := range files {
		for _, f := range pkgFiles {
			for _, decl := range f.Decls {
				var self types.Object
				if fn, ok := decl.(*ast.FuncDecl); ok {
					self = info.Defs[fn.Name]
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := info.Uses[id].(*types.Func); ok && fn.Origin() != self {
							called[fn.Origin()] = true
						}
					}
					return true
				})
			}
		}
	}

	// byName maps a method name to the interfaces through which a call of
	// that method reaches every implementation: those whose method of that
	// name a non-test file calls, and the ones the standard library calls.
	byName := map[string][]*types.Interface{}
	for fn := range called {
		if recv := fn.Signature().Recv(); recv != nil {
			if it, ok := recv.Type().Underlying().(*types.Interface); ok {
				byName[fn.Name()] = append(byName[fn.Name()], it)
			}
		}
	}
	std := []types.Type{types.Universe.Lookup("error").Type()}
	for _, s := range []struct{ pkg, name string }{
		{"fmt", "Stringer"}, {"io", "Writer"}, {"net/http", "Handler"},
		{"net/http", "Flusher"}, {"log/slog", "Handler"},
	} {
		p, err := imp.Import(s.pkg)
		if err != nil {
			t.Fatal(err)
		}
		std = append(std, p.Scope().Lookup(s.name).Type())
	}
	for _, typ := range std {
		it := typ.Underlying().(*types.Interface)
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			byName[name] = append(byName[name], it)
		}
	}
	implemented := func(fn *types.Func) bool {
		named := receiverNamed(fn.Signature().Recv().Type())
		if types.IsInterface(named) || named.TypeParams().Len() > 0 {
			return false
		}
		for _, it := range byName[fn.Name()] {
			if types.Implements(types.NewPointer(named), it) {
				return true
			}
		}
		return false
	}

	var uncalled []string
	kept := map[string]bool{}
	for fn, pos := range exports {
		if called[fn] {
			continue
		}
		name := fn.Pkg().Name() + "." + fn.Name()
		if recv := fn.Signature().Recv(); recv != nil {
			if implemented(fn) {
				continue
			}
			name = fn.Pkg().Name() + "." + receiverNamed(recv.Type()).Obj().Name() + "." + fn.Name()
		}
		if _, ok := uncalledExports[name]; ok {
			kept[name] = true
			continue
		}
		uncalled = append(uncalled, pos.String()+": "+name)
	}
	sort.Strings(uncalled)
	for _, u := range uncalled {
		t.Errorf("%s is exported but no non-test file calls it: delete it, or list it in uncalledExports with the reason it stays", u)
	}
	var stale []string
	for name := range uncalledExports {
		if !kept[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		t.Errorf("uncalledExports lists %s, which is not an uncalled exported function or method: drop the entry", name)
	}
}

// receiverNamed is the named type of a method receiver, through a pointer.
func receiverNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// moduleImporter type-checks the module's packages from their non-test
// files, each once, recording into one Info; every other import is the
// standard library, type-checked from source.
type moduleImporter struct {
	std     types.Importer
	fset    *token.FileSet
	files   map[string][]*ast.File
	info    *types.Info
	checked map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.checked[path]; ok {
		return p, nil
	}
	pkgFiles, ok := m.files[path]
	if !ok {
		return m.std.Import(path)
	}
	conf := types.Config{Importer: m}
	p, err := conf.Check(path, m.fset, pkgFiles, m.info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", strconv.Quote(path), err)
	}
	m.checked[path] = p
	return p, nil
}
