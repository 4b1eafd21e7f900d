package masm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// goTool returns the go binary, skipping the test where the toolchain is
// unavailable or the run is -short.
func goTool(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping toolchain test in -short mode")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	return goBin
}

// TestEverythingBuilds is the smoke test keeping examples/*, cmd/* and the
// separate benchmark module buildable: `go build` and `go vet` must succeed
// for both modules, so a refactor of the library cannot silently break the
// binaries, the examples (which have no test files of their own) or the
// benchmark harness (which tier-1 does not otherwise compile).
func TestEverythingBuilds(t *testing.T) {
	goBin := goTool(t)
	for _, c := range []struct {
		dir  string
		args []string
	}{
		{".", []string{"build", "./..."}},
		{".", []string{"vet", "./..."}},
		{"benchmark", []string{"build", "-o", os.DevNull, "."}},
		{"benchmark", []string{"vet", "."}},
	} {
		cmd := exec.Command(goBin, c.args...)
		cmd.Dir = c.dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %s in %s failed: %v\n%s", strings.Join(c.args, " "), c.dir, err, out)
		}
	}
}

// TestNoOrphanPackages keeps the engine free of packages nothing uses:
// every masm/internal/... package must be imported by a non-test file of
// some other package, in this module or in the benchmark module.
func TestNoOrphanPackages(t *testing.T) {
	goBin := goTool(t)
	imported := make(map[string]bool)
	var internal []string
	for _, m := range []struct{ dir, pkgs string }{{".", "./..."}, {"benchmark", "."}} {
		// .Imports lists the imports of the package's non-test files only.
		cmd := exec.Command(goBin, "list", "-f", `{{.ImportPath}} {{join .Imports " "}}`, m.pkgs)
		cmd.Dir = m.dir
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list in %s failed: %v", m.dir, err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			fields := strings.Fields(line)
			if strings.HasPrefix(fields[0], "masm/internal/") {
				internal = append(internal, fields[0])
			}
			for _, imp := range fields[1:] {
				if imp != fields[0] {
					imported[imp] = true
				}
			}
		}
	}
	if len(internal) == 0 {
		t.Fatal("go list found no masm/internal/... packages")
	}
	for _, pkg := range internal {
		if !imported[pkg] {
			t.Errorf("%s is imported by no non-test file of another package: delete it or give it a caller", pkg)
		}
	}
}

// testSeams lists the exported declarations under internal/ that no
// non-test file references but that tests in another package drive. Every
// other declaration only tests use is deleted, or moved into a _test.go
// file of its own package.
var testSeams = map[string]string{
	"chaos.FaultBackend.Writes": "the recovery differential tests plan a fault at the next write",
	"masm.Store.FailMigrations": "the scheduler tests inject a failing migration into one table",
	"proto.Client.Abort":        "the server tests abort wire transactions",
	"proto.Client.Stats":        "the server tests read OpStats",
	"sim.Device.ResetStats":     "the inplace, iu and table tests measure one phase's device I/O",
	"storage.Volume.Device":     "the table tests read a volume's device counters",
	"update.Record.Fields":      "the workload and root tests decode generated Modify records",
	"wal.Log.EndOffset":         "the crash tests cut the log at a synced offset",
}

// TestNoTestOnlyExports extends TestNoOrphanPackages to declarations: every
// exported func, method, type, var and const declared in a non-test file
// under internal/ must be referenced by a non-test file of this module or of
// the benchmark module, outside its own declaration (a method's receiver
// does not count). A method that implements an interface the program uses
// counts as referenced, since a call through the interface never names it.
func TestNoTestOnlyExports(t *testing.T) {
	pkgs := loadProgram(t, goTool(t))

	refs := make(map[types.Object]bool)
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, p := range pkgs {
		for _, imp := range p.types.Imports() {
			ifaces = appendInterfaces(ifaces, imp.Scope())
		}
		ifaces = appendInterfaces(ifaces, p.types.Scope())
		for _, tv := range p.info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && tv.IsType() && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
		for _, f := range p.files {
			addRefs(refs, f, p.info)
		}
	}

	declared := make(map[string]bool)
	var offenders []string
	for _, p := range pkgs {
		if !strings.HasPrefix(p.path, "masm/internal/") {
			continue
		}
		for _, f := range p.files {
			for _, d := range exportedDecls(f, p.info) {
				name := p.types.Name() + "." + d.name
				declared[name] = true
				if refs[d.obj] || implementsUsed(d.obj, ifaces) {
					continue
				}
				if _, ok := testSeams[name]; !ok {
					offenders = append(offenders, fmt.Sprintf("%s (%s)", name, p.fset.Position(d.obj.Pos())))
				}
			}
		}
	}
	sort.Strings(offenders)
	for _, o := range offenders {
		t.Errorf("%s is referenced only by tests: delete it, move it into a _test.go file of its package, or list it in testSeams", o)
	}
	for name := range testSeams {
		if !declared[name] {
			t.Errorf("testSeams lists %s, which is not an exported declaration under internal/", name)
		}
	}
}

// checkedPkg is one package of the program, type-checked from its non-test
// files.
type checkedPkg struct {
	path  string
	fset  *token.FileSet
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// moduleImporter serves the module's own packages from the ones already
// type-checked, and every other package from the compiler's export data.
type moduleImporter struct {
	mod   map[string]*types.Package
	other types.Importer
}

func (m moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.mod[path]; ok {
		return p, nil
	}
	return m.other.Import(path)
}

// loadProgram type-checks every package of this module and of the
// benchmark module in `go list -deps` order, so that a package's module
// imports are checked before it.
func loadProgram(t *testing.T, goBin string) []*checkedPkg {
	t.Helper()
	type listed struct {
		ImportPath, Dir, Export string
		GoFiles                 []string
		Module                  *struct{ Path string }
	}
	var order []listed
	exports := make(map[string]string)
	for _, m := range []struct{ dir, pkgs string }{{".", "./..."}, {"benchmark", "."}} {
		cmd := exec.Command(goBin, "list", "-deps", "-export", "-json", m.pkgs)
		cmd.Dir = m.dir
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list in %s failed: %v", m.dir, err)
		}
		for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
			var p listed
			if err := dec.Decode(&p); err != nil {
				t.Fatal(err)
			}
			exports[p.ImportPath] = p.Export
			if p.Module != nil && strings.HasPrefix(p.Module.Path, "masm") {
				order = append(order, p)
			}
		}
	}
	fset := token.NewFileSet()
	imp := moduleImporter{
		mod: make(map[string]*types.Package),
		other: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			return os.Open(exports[path])
		}),
	}
	var pkgs []*checkedPkg
	for _, p := range order {
		if imp.mod[p.ImportPath] != nil {
			continue // listed again as a dependency of the benchmark module
		}
		cp := &checkedPkg{path: p.ImportPath, fset: fset, info: &types.Info{
			Types: make(map[ast.Expr]types.TypeAndValue),
			Defs:  make(map[*ast.Ident]types.Object),
			Uses:  make(map[*ast.Ident]types.Object),
		}}
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			cp.files = append(cp.files, f)
		}
		var err error
		conf := types.Config{Importer: imp}
		if cp.types, err = conf.Check(p.ImportPath, fset, cp.files, cp.info); err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		imp.mod[p.ImportPath] = cp.types
		pkgs = append(pkgs, cp)
	}
	return pkgs
}

// addRefs records every object a file's identifiers refer to, except a
// declaration's references to itself and the type named by a method's
// receiver.
func addRefs(refs map[types.Object]bool, f *ast.File, info *types.Info) {
	walk := func(n ast.Node, recv *ast.FieldList, own ...*ast.Ident) {
		ast.Inspect(n, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FieldList); ok && fl == recv {
				return false
			}
			if id, ok := n.(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil && !slices.ContainsFunc(own, func(o *ast.Ident) bool { return info.Defs[o] == obj }) {
					refs[origin(obj)] = true
				}
			}
			return true
		})
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			walk(d, d.Recv, d.Name)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					walk(s, nil, s.Name)
				case *ast.ValueSpec:
					walk(s, nil, s.Names...)
				default:
					walk(s, nil)
				}
			}
		}
	}
}

// origin maps an instantiated generic function, method or field to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

type exportedDecl struct {
	name string // Name, or Type.Method for a method
	obj  types.Object
}

// exportedDecls lists a file's exported top-level declarations and the
// exported methods it declares.
func exportedDecls(f *ast.File, info *types.Info) []exportedDecl {
	var out []exportedDecl
	add := func(id *ast.Ident, name string) {
		if id.IsExported() {
			out = append(out, exportedDecl{name, info.Defs[id]})
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				add(d.Name, d.Name.Name)
				continue
			}
			recv := d.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			switch generic := recv.(type) {
			case *ast.IndexExpr:
				recv = generic.X
			case *ast.IndexListExpr:
				recv = generic.X
			}
			add(d.Name, recv.(*ast.Ident).Name+"."+d.Name.Name)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					add(s.Name, s.Name.Name)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add(id, id.Name)
					}
				}
			}
		}
	}
	return out
}

// appendInterfaces adds the non-empty interface types a scope declares.
func appendInterfaces(ifaces []*types.Interface, scope *types.Scope) []*types.Interface {
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
	}
	return ifaces
}

// implementsUsed reports whether obj is a method that lets its receiver
// type satisfy one of ifaces.
func implementsUsed(obj types.Object, ifaces []*types.Interface) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	ptr := recv.Type()
	if _, ok := ptr.(*types.Pointer); !ok {
		ptr = types.NewPointer(ptr)
	}
	for _, it := range ifaces {
		if !types.Implements(ptr, it) {
			continue
		}
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() {
				return true
			}
		}
	}
	return false
}

// TestExamplesRun runs every program under examples/: they are the
// documentation of the public surface, and each exits non-zero (log.Fatal)
// on any error.
func TestExamplesRun(t *testing.T) {
	goBin := goTool(t)
	ents, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		if !ent.IsDir() {
			continue
		}
		cmd := exec.Command(goBin, "run", "./examples/"+ent.Name())
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Errorf("go run ./examples/%s: %v\n%s", ent.Name(), err, out)
		}
	}
}
