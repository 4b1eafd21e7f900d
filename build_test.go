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
	"maps"
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
// non-test file references but that tests in another package drive, keyed
// by import path (internal/masm's package name is masm too). Every other
// declaration only tests use is deleted, or moved into a _test.go file of
// its own package.
var testSeams = map[string]string{
	"masm/internal/chaos.FaultBackend.Writes": "the recovery differential tests plan a fault at the next write",
	"masm/internal/masm.Store.FailMigrations": "the scheduler tests inject a failing migration into one table",
	"masm/internal/obs.Server.Addr":           "the root metrics-endpoint test dials the port the kernel picked",
	"masm/internal/proto.Client.Abort":        "the server tests abort wire transactions",
	"masm/internal/proto.Client.Stats":        "the server tests read OpStats",
	"masm/internal/sim.Device.ResetStats":     "the inplace, iu and table tests measure one phase's device I/O",
	"masm/internal/storage.Volume.Device":     "the table tests read a volume's device counters",
	"masm/internal/update.Record.Fields":      "the workload and root tests decode generated Modify records",
	"masm/internal/wal.Log.EndOffset":         "the crash tests cut the log at a synced offset",
}

// rootSeams is the root package's own list, keyed as "masm.Decl". The root
// package is the API importers see, so nothing is listed: a seam only the
// root's tests use goes into export_test.go instead (OpenEngineDirInlineRebuild,
// SetAdmitWait, Table.SlotLedger), and the tests of package masm read
// unexported fields.
var rootSeams = map[string]string{}

// TestNoTestOnlyExports extends TestNoOrphanPackages to declarations: every
// exported func, method, type, var and const declared in a non-test file of
// the root package or under internal/ must be referenced by a non-test file
// of this module or of the benchmark module, outside its own declaration (a
// method's receiver does not count), or be listed in testSeams or
// rootSeams. A method that implements an interface the program uses counts
// as referenced, since a call through the interface never names it.
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

	seams := maps.Clone(testSeams)
	maps.Copy(seams, rootSeams)
	declared := make(map[string]bool)
	var offenders []string
	for _, p := range pkgs {
		if p.path != "masm" && !strings.HasPrefix(p.path, "masm/internal/") {
			continue
		}
		for _, f := range p.files {
			for _, d := range exportedDecls(f, p.info) {
				name := p.path + "." + d.name
				declared[name] = true
				if refs[d.obj] || implementsUsed(d.obj, ifaces) {
					continue
				}
				if _, ok := seams[name]; !ok {
					offenders = append(offenders, fmt.Sprintf("%s (%s)", name, p.fset.Position(d.obj.Pos())))
				}
			}
		}
	}
	sort.Strings(offenders)
	for _, o := range offenders {
		t.Errorf("%s is referenced only by tests: delete it, move it into a _test.go file of its package, or list it in testSeams or rootSeams", o)
	}
	for name := range seams {
		if !declared[name] {
			t.Errorf("%s is listed as a test seam but is not an exported declaration of the root package or under internal/", name)
		}
	}
}

// internalAPITypes lists the masm/internal/... types an exported signature
// of the root package may name, keyed by import path. An importer outside
// this module cannot name them, so each is a debt with a reason.
var internalAPITypes = map[string]string{
	"masm/internal/obs.Snapshot":    "Engine.Metrics; the benchmark module reads it, so it changes with the benchmark",
	"masm/internal/obs.Registry":    "Engine.Registry; the benchmark module reads it, so it changes with the benchmark",
	"masm/internal/obs.Sink":        "Engine.SetTraceSink; the benchmark module installs one, so it changes with the benchmark",
	"masm/internal/sim.Duration":    "Engine.Elapsed; the benchmark module reads it, so it changes with the benchmark",
	"masm/internal/storage.Backend": "EngineDirOptions.WrapBackend, the fault-injection seam internal/chaos drives",
}

// TestNoInternalTypesInAPI fails when an exported signature of the root
// package — a function's or an exported method's parameters and results,
// an exported struct field, an exported variable, or what an exported
// alias names — mentions a named type from masm/internal/... that
// internalAPITypes does not list. It looks through pointers, slices, maps,
// channels, function types and type arguments, but not into a named
// type's own definition.
func TestNoInternalTypesInAPI(t *testing.T) {
	var root *checkedPkg
	for _, p := range loadProgram(t, goTool(t)) {
		if p.path == "masm" {
			root = p
		}
	}
	if root == nil {
		t.Fatal("the root package masm was not loaded")
	}
	used := make(map[string][]string) // internal type -> where the API names it
	for _, name := range root.types.Scope().Names() {
		obj := root.types.Scope().Lookup(name)
		if !obj.Exported() {
			continue
		}
		for typ, where := range apiTypes(obj) {
			used[typ] = append(used[typ], where)
		}
	}
	var bad []string
	for typ, where := range used {
		if _, ok := internalAPITypes[typ]; !ok {
			sort.Strings(where)
			bad = append(bad, fmt.Sprintf("%s (in %s)", typ, strings.Join(where, ", ")))
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Errorf("the public API names internal type %s: use a type of package masm, or list it in internalAPITypes with a reason", b)
	}
	for typ := range internalAPITypes {
		if used[typ] == nil {
			t.Errorf("internalAPITypes lists %s, which no exported signature of package masm names", typ)
		}
	}
}

// apiTypes maps each masm/internal/... named type that obj's exported
// surface mentions to the member that mentions it.
func apiTypes(obj types.Object) map[string]string {
	out := make(map[string]string)
	note := func(tn *types.TypeName, where string) {
		if pkg := tn.Pkg(); pkg != nil && strings.HasPrefix(pkg.Path(), "masm/internal/") {
			out[pkg.Path()+"."+tn.Name()] = where
		}
	}
	var walk func(typ types.Type, where string)
	walk = func(typ types.Type, where string) {
		switch t := typ.(type) {
		case *types.Alias: // sim.Duration is time.Duration, but go doc shows sim.Duration
			note(t.Obj(), where)
			walk(types.Unalias(t), where)
		case *types.Named:
			note(t.Obj(), where)
			for i := 0; i < t.TypeArgs().Len(); i++ {
				walk(t.TypeArgs().At(i), where)
			}
		case *types.Pointer:
			walk(t.Elem(), where)
		case *types.Slice:
			walk(t.Elem(), where)
		case *types.Array:
			walk(t.Elem(), where)
		case *types.Chan:
			walk(t.Elem(), where)
		case *types.Map:
			walk(t.Key(), where)
			walk(t.Elem(), where)
		case *types.Signature:
			for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
				for i := 0; i < tup.Len(); i++ {
					walk(tup.At(i).Type(), where)
				}
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if f := t.Field(i); f.Exported() {
					walk(f.Type(), where+"."+f.Name())
				}
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				walk(t.Method(i).Type(), where+"."+t.Method(i).Name())
			}
		}
	}
	switch o := obj.(type) {
	case *types.TypeName:
		if o.IsAlias() {
			walk(o.Type(), o.Name())
			break
		}
		named, ok := o.Type().(*types.Named)
		if !ok {
			break
		}
		walk(named.Underlying(), o.Name())
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Exported() {
				walk(m.Type(), o.Name()+"."+m.Name())
			}
		}
	default:
		walk(obj.Type(), obj.Name())
	}
	return out
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
