package repro

// The caller audit: a tier-1 check that the library carries no API that
// only its own tests call. It type-checks every package of the module,
// and of the nested benchmark module, under each build configuration CI
// builds, and fails on four kinds of finding:
//
//   - an exported func, type, var, const or method of a library package
//     that nothing outside _test.go files references. cmd/, examples/
//     and benchmark/ are callers like any other package. A method that
//     lets its type satisfy a non-test interface is not a finding;
//   - an exported field of an exported struct that non-test code never
//     writes: no keyed or unkeyed literal sets it, no assignment, no &x.F
//     and no pointer-method call on it. A write x.F = v directly inside
//     `if x.F <op> zero` in F's own package defaults the field and does
//     not set it. Fields with struct tags are exempt, because a codec
//     sets them;
//   - an unexported package-level declaration that nothing references at
//     all, tests included (staticcheck's U1000 class);
//   - an exported method that a _test.go file declares on a library type:
//     under go test the type then has a method set that real builds lack.
//
// sreflect binds SIDL methods to Go methods by name at run time, so a
// method whose name a non-test GoName literal (the generated bindings'
// TypeInfo records) or a .sidl file of the module lists counts as
// referenced by non-test code. Declarations in generated files are never
// findings. A finding either goes, or is named in auditAllow with one of
// the four reasons below. Outside the repository's own SIDL parser only
// the standard library is used: go/build selects files, go/parser and
// go/types check them, and the "source" importer types the standard
// library.

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/sidl"
)

// auditReason is the closed set of reasons an allowlisted finding may
// carry.
type auditReason int

const (
	// A test double that more than one package's tests share.
	reasonSharedTestDouble auditReason = iota + 1
	// A paper mechanism or recovery path that a named CI step, ablation
	// or E-experiment gates.
	reasonGatedMechanism
	// The oracle of a fuzz round-trip property.
	reasonFuzzOracle
	// A fixture that the tests of more than one package, or an
	// E-experiment, use.
	reasonSharedFixture
)

// auditAllow names each finding that stays, with its reason. A key is
// the package path relative to the module root, then the declaration:
// "internal/dist.GuardCohort", "internal/orb.Supervised.State" for a
// method or field.
var auditAllow = map[string]auditReason{
	// Fault injection for the orb, dist, dist/collective and transport
	// tests.
	"internal/transport.Faulty": reasonSharedTestDouble,
	"internal/transport.Faults": reasonSharedTestDouble,

	// Crash restart: CI's crash-restart smoke
	// (TestChaosKillMidKrylovRestoreResumes) relaunches through the
	// policy and replays through the restore key.
	"internal/orb.RegisterRestore":           reasonGatedMechanism,
	"internal/orb.RestartPolicy":             reasonGatedMechanism,
	"internal/orb.SupervisorOptions.Restart": reasonGatedMechanism,
	// The per-attempt bound CI's chaos suites recover dropped frames by.
	"internal/orb.SupervisorOptions.CallTimeout": reasonGatedMechanism,
	// E13's admission shed.
	"internal/orb.ServeOptions.MaxInflight": reasonGatedMechanism,
	// §6.2's proxy interposition, the ablation's proxied row.
	"internal/cca/framework.Options.Proxy": reasonGatedMechanism,
	// The cohort guard CI's chaos smoke drives.
	"internal/dist.GuardCohort": reasonGatedMechanism,
	// E9's broadcast row.
	"internal/mpi.Comm.Bcast": reasonGatedMechanism,

	// FuzzParse's round trip: parse → format → parse → format.
	"internal/ccl.Format": reasonFuzzOracle,

	// Fixtures of more than one package's tests (meshes, refinement, the
	// reloaded repository's factory binding) or of the experiment harness
	// (the partitioner ablation's edge cut, the fast-path ablation's forced
	// transfer, E12's SIMD backend name).
	"internal/mesh.TriangulatedRect":              reasonSharedFixture,
	"internal/mesh.EdgeCut":                       reasonSharedFixture,
	"internal/mesh.Refine":                        reasonSharedFixture,
	"internal/cca/collective.Plan.TransferForced": reasonSharedFixture,
	"internal/simd.Backend":                       reasonSharedFixture,
	"internal/repo.Repository.BindFactory":        reasonSharedFixture,
}

// auditMaxAllow bounds the allowlist: it is a short list of exceptions,
// not a second inventory.
const auditMaxAllow = 40

// auditModule is one Go module the audit loads: its directory and module
// path. Subdirectories holding a go.mod of their own are not part of it.
type auditModule struct{ dir, path string }

// auditTarget is one build configuration. References union over all of
// them, so a declaration used only by a windows or noasm file is used.
type auditTarget struct {
	goos, goarch string
	tags         []string
}

// auditTargets are the four configurations CI builds: linux/amd64,
// -tags noasm, GOARCH=arm64 and GOOS=windows. The noasm one also sets the
// race and chaos tags of CI's test jobs, which select test files only.
var auditTargets = []auditTarget{
	{"linux", "amd64", nil},
	{"linux", "amd64", []string{"noasm", "race", "chaos"}},
	{"linux", "arm64", nil},
	{"windows", "amd64", nil},
}

var (
	repoModules    = []auditModule{{".", "repro"}, {"benchmark", "repro/benchmark"}}
	fixtureModules = []auditModule{{"testdata/audit", "auditfix"}, {"testdata/audit/nested", "auditfix/nested"}}
)

type declKind int

const (
	kindExported   declKind = iota + 1 // exported package-level decl or method
	kindField                          // exported field of an exported struct
	kindOrphan                         // unexported package-level decl
	kindTestMethod                     // exported method a _test.go file adds to a library type
)

type auditDecl struct {
	key       string // allowlist key
	module    string // path of the module that declares it
	kind      declKind
	what      string // "func", "method", "type", ...
	pos       token.Position
	span      [2]token.Pos // references inside the declaration itself do not count
	group     *auditDecl   // const block the decl shares its use with, if any
	nonTest   bool         // referenced from a non-test file
	test      bool         // referenced from a _test.go file
	written   bool         // field: written by non-test code
	satisfies bool         // method: needed for its type to satisfy an interface
}

// auditFinding is one declaration the audit rejects unless allowed.
type auditFinding struct {
	key, module, msg string
}

// auditor accumulates declarations and references over every target.
type auditor struct {
	fset     *token.FileSet
	std      types.Importer
	stdPkgs  map[string]*types.Package // the std importer re-reads a package's directory on every call
	modules  []auditModule
	files    map[string]*ast.File
	decls    map[token.Pos]*auditDecl
	typeErrs []string
	// reflected holds, per module, the Go method names sreflect may bind
	// by reflection: non-test GoName literals and the methods of the
	// module's .sidl files.
	reflected map[string]map[string]bool
}

func newAuditor(modules []auditModule) *auditor {
	fset := token.NewFileSet()
	return &auditor{
		fset:      fset,
		std:       importer.ForCompiler(fset, "source", nil),
		stdPkgs:   map[string]*types.Package{},
		modules:   modules,
		files:     map[string]*ast.File{},
		decls:     map[token.Pos]*auditDecl{},
		reflected: map[string]map[string]bool{},
	}
}

// parse returns the file's syntax tree, parsing each file once over all
// targets so that positions, and so declaration keys, agree between them.
func (a *auditor) parse(name string) (*ast.File, error) {
	if f, ok := a.files[name]; ok {
		return f, nil
	}
	f, err := parser.ParseFile(a.fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	a.files[name] = f
	return f, nil
}

// auditPkg is one package directory under one target.
type auditPkg struct {
	path, module       string
	base, test         *types.Package
	goFiles, testFiles []*ast.File
	xFiles             []*ast.File
}

// auditLoader type-checks the modules' packages for one target. It is
// the importer for the module's own paths and defers to the "source"
// importer for the standard library.
type auditLoader struct {
	a      *auditor
	target auditTarget
	pkgs   map[string]*auditPkg
	order  []string
	ifaces []*types.Interface // anonymous interface types in non-test code
}

func (l *auditLoader) Import(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return l.loadBase(p), nil
	}
	if pkg, ok := l.a.stdPkgs[path]; ok {
		return pkg, nil
	}
	pkg, err := l.a.std.Import(path)
	if err == nil {
		l.a.stdPkgs[path] = pkg
	}
	return pkg, err
}

// xtestImporter resolves the package under test to its variant compiled
// with its in-package _test.go files, as `go test` does for an external
// test package.
type xtestImporter struct {
	l *auditLoader
	p *auditPkg
}

func (x xtestImporter) Import(path string) (*types.Package, error) {
	if path == x.p.path {
		return x.l.loadTest(x.p), nil
	}
	return x.l.Import(path)
}

func (l *auditLoader) loadBase(p *auditPkg) *types.Package {
	if p.base == nil {
		p.base = l.check(p, p.path, p.goFiles, l, true)
	}
	return p.base
}

func (l *auditLoader) loadTest(p *auditPkg) *types.Package {
	if len(p.testFiles) == 0 {
		return l.loadBase(p)
	}
	if p.test == nil {
		files := append(append([]*ast.File{}, p.goFiles...), p.testFiles...)
		p.test = l.check(p, p.path, files, l, false)
	}
	return p.test
}

func (l *auditLoader) check(p *auditPkg, path string, files []*ast.File, imp types.Importer, base bool) *types.Package {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{
		Importer:  imp,
		GoVersion: "go1.22",
		Sizes:     types.SizesFor("gc", l.target.goarch),
		Error: func(err error) {
			// A test variant may mix a package with its own test build
			// through a third package; only the library must check clean.
			if base {
				l.a.typeErrs = append(l.a.typeErrs, fmt.Sprintf("%s %v: %v", path, l.target, err))
			}
		},
	}
	pkg, _ := conf.Check(path, l.a.fset, files, info)
	l.a.scan(l, p, pkg, files, info)
	return pkg
}

// run loads and checks every package of the modules under target t.
func (a *auditor) run(t auditTarget) error {
	ctx := build.Default
	ctx.GOOS, ctx.GOARCH, ctx.BuildTags, ctx.CgoEnabled = t.goos, t.goarch, t.tags, false
	l := &auditLoader{a: a, target: t, pkgs: map[string]*auditPkg{}}
	for _, m := range a.modules {
		err := filepath.WalkDir(m.dir, func(dir string, e os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			name := e.Name()
			if !e.IsDir() {
				if strings.HasSuffix(name, ".sidl") {
					return a.readSIDL(m.path, dir)
				}
				return nil
			}
			if dir != m.dir {
				if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
					return filepath.SkipDir
				}
				if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			bp, err := ctx.ImportDir(dir, 0)
			var noGo *build.NoGoError
			if errors.As(err, &noGo) {
				return nil
			}
			if err != nil {
				return err
			}
			rel, _ := filepath.Rel(m.dir, dir)
			p := &auditPkg{path: m.path, module: m.path}
			if rel != "." {
				p.path = m.path + "/" + filepath.ToSlash(rel)
			}
			for _, set := range []struct {
				names []string
				dst   *[]*ast.File
			}{{bp.GoFiles, &p.goFiles}, {bp.TestGoFiles, &p.testFiles}, {bp.XTestGoFiles, &p.xFiles}} {
				for _, n := range set.names {
					f, err := a.parse(filepath.Join(dir, n))
					if err != nil {
						return err
					}
					*set.dst = append(*set.dst, f)
				}
			}
			l.pkgs[p.path] = p
			l.order = append(l.order, p.path)
			return nil
		})
		if err != nil {
			return err
		}
	}
	for _, path := range l.order {
		p := l.pkgs[path]
		if len(p.goFiles) > 0 {
			l.loadBase(p)
		}
		l.loadTest(p)
		if len(p.xFiles) > 0 {
			l.check(p, p.path+"_test", p.xFiles, xtestImporter{l, p}, false)
		}
	}
	a.markInterfaceMethods(l)
	return nil
}

// reflect records that module's code may bind methods named name by
// reflection.
func (a *auditor) reflect(module, name string) {
	if a.reflected[module] == nil {
		a.reflected[module] = map[string]bool{}
	}
	a.reflected[module][name] = true
}

// readSIDL records the Go binding name of every method the SIDL file
// declares, as sreflect's FromTable derives it.
func (a *auditor) readSIDL(module, name string) error {
	src, err := os.ReadFile(name)
	if err != nil {
		return err
	}
	f, err := sidl.Parse(string(src))
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	for _, p := range f.Packages {
		for _, d := range p.Decls {
			var ms []*sidl.MethodDecl
			switch d := d.(type) {
			case *sidl.InterfaceDecl:
				ms = d.Methods
			case *sidl.ClassDecl:
				ms = d.Methods
			}
			for _, m := range ms {
				a.reflect(module, strings.ToUpper(m.Name[:1])+m.Name[1:])
			}
		}
	}
	return nil
}

func (a *auditor) isTestFile(pos token.Pos) bool {
	return strings.HasSuffix(a.fset.File(pos).Name(), "_test.go")
}

// scan registers the declarations of files and records what they
// reference and write. Registration is keyed by position, so a file
// scanned again in a test variant or another target adds nothing twice.
func (a *auditor) scan(l *auditLoader, p *auditPkg, pkg *types.Package, files []*ast.File, info *types.Info) {
	library := pkg.Name() != "main" && !strings.HasSuffix(pkg.Name(), "_test")
	recvIdents := map[*ast.Ident]bool{}
	for _, f := range files {
		test := a.isTestFile(f.Pos())
		gen := ast.IsGenerated(f)
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
				ast.Inspect(fd.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						recvIdents[id] = true
					}
					return true
				})
			}
			if !gen {
				a.declare(p, pkg, info, d, test, library)
			}
		}
	}
	for id, obj := range info.Uses {
		if recvIdents[id] {
			continue
		}
		d := a.decls[origin(obj).Pos()]
		if d == nil || (d.span[0] <= id.Pos() && id.Pos() < d.span[1]) {
			continue
		}
		if a.isTestFile(id.Pos()) {
			d.test = true
		} else {
			d.nonTest = true
		}
	}
	for _, f := range files {
		if a.isTestFile(f.Pos()) {
			continue
		}
		a.markWrites(l, p.module, pkg, f, info)
	}
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// declare registers the candidate declarations of one top-level decl.
func (a *auditor) declare(p *auditPkg, pkg *types.Package, info *types.Info, d ast.Decl, test, library bool) {
	add := func(id *ast.Ident, kind declKind, what, key string, span ast.Node) *auditDecl {
		obj := info.Defs[id]
		if obj == nil || id.Name == "_" {
			return nil
		}
		if old := a.decls[obj.Pos()]; old != nil {
			return old
		}
		_, rel, nested := strings.Cut(pkg.Path(), "/")
		if !nested {
			rel = pkg.Name()
		}
		ad := &auditDecl{
			key: rel + "." + key, module: p.module, kind: kind, what: what,
			pos: a.fset.Position(id.Pos()), span: [2]token.Pos{span.Pos(), span.End()},
		}
		a.decls[obj.Pos()] = ad
		return ad
	}
	switch d := d.(type) {
	case *ast.FuncDecl:
		name := d.Name.Name
		switch {
		case d.Recv != nil:
			recv := recvIdent(d)
			switch {
			case !library || !d.Name.IsExported():
			case !test:
				add(d.Name, kindExported, "method", recv.Name+"."+name, d)
			case !a.isTestFile(info.Uses[recv].Pos()):
				add(d.Name, kindTestMethod, "method", recv.Name+"."+name, d)
			}
		case d.Name.IsExported():
			if library && !test {
				add(d.Name, kindExported, "func", name, d)
			}
		case name != "init" && name != "main" && !hasLinkname(d):
			add(d.Name, kindOrphan, "func", name, d)
		}
	case *ast.GenDecl:
		var group *auditDecl
		if d.Tok == token.CONST && d.Lparen.IsValid() {
			group = &auditDecl{}
		}
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				if !s.Name.IsExported() {
					add(s.Name, kindOrphan, "type", s.Name.Name, s)
					continue
				}
				if !library || test {
					continue
				}
				add(s.Name, kindExported, "type", s.Name.Name, s)
				st, ok := s.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, f := range st.Fields.List {
					if f.Tag != nil {
						continue
					}
					names := f.Names
					if len(names) == 0 { // embedded: the field is named by its type
						if id := embeddedIdent(f.Type); id != nil {
							names = []*ast.Ident{id}
						}
					}
					for _, id := range names {
						if id.IsExported() {
							add(id, kindField, "field", s.Name.Name+"."+id.Name, id)
						}
					}
				}
			case *ast.ValueSpec:
				what := strings.ToLower(d.Tok.String())
				for _, id := range s.Names {
					switch {
					case !id.IsExported():
						if ad := add(id, kindOrphan, what, id.Name, s); ad != nil {
							ad.group = group
						}
					case library && !test:
						add(id, kindExported, what, id.Name, s)
					}
				}
			}
		}
	}
}

// recvIdent returns the identifier that names the receiver's base type.
func recvIdent(d *ast.FuncDecl) *ast.Ident {
	t := d.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.ParenExpr:
			t = x.X
		default:
			return x.(*ast.Ident)
		}
	}
}

func embeddedIdent(t ast.Expr) *ast.Ident {
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.SelectorExpr:
			return x.Sel
		case *ast.Ident:
			return x
		default:
			return nil
		}
	}
}

func hasLinkname(d *ast.FuncDecl) bool {
	if d.Doc == nil {
		return false
	}
	for _, c := range d.Doc.List {
		if strings.HasPrefix(c.Text, "//go:linkname ") {
			return true
		}
	}
	return false
}

// markWrites marks each struct field that non-test file f of pkg writes:
// by a keyed or unkeyed literal, an assignment, ++/--, a range clause,
// &x.F, slicing an array field, or a pointer-method call on a field value.
// An assignment to one of pkg's own fields directly inside an if that
// compares that field with a zero value only defaults it and is no write.
// It also records the method names f's GoName literals bind by reflection.
func (a *auditor) markWrites(l *auditLoader, module string, pkg *types.Package, f *ast.File, info *types.Info) {
	setField := func(obj types.Object) {
		if d := a.decls[origin(obj).Pos()]; d != nil && d.kind == kindField {
			d.written = true
		}
	}
	field := func(e ast.Expr) types.Object {
		if x, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
				return origin(sel.Obj())
			}
		}
		return nil
	}
	zero := func(e ast.Expr) bool {
		tv := info.Types[e]
		switch v := tv.Value; {
		case tv.IsNil():
			return true
		case v == nil || v.Kind() == constant.Bool:
			return false
		case v.Kind() == constant.String:
			return constant.StringVal(v) == ""
		default:
			return constant.Sign(v) == 0
		}
	}
	defaults := map[*ast.AssignStmt]bool{}
	var lvalue func(e ast.Expr)
	lvalue = func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.SelectorExpr:
				sel := info.Selections[x]
				if sel == nil || sel.Kind() != types.FieldVal {
					return
				}
				setField(sel.Obj())
				if _, ptr := info.TypeOf(x.X).Underlying().(*types.Pointer); ptr {
					return
				}
				e = x.X
			case *ast.IndexExpr:
				if _, arr := info.TypeOf(x.X).Underlying().(*types.Array); !arr {
					return
				}
				e = x.X
			default:
				return
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			c, ok := ast.Unparen(n.Cond).(*ast.BinaryExpr)
			if !ok || (c.Op != token.EQL && c.Op != token.LEQ && c.Op != token.LSS) || !zero(c.Y) {
				break
			}
			fld := field(c.X)
			if fld == nil || fld.Pkg().Path() != pkg.Path() {
				break
			}
			for _, st := range n.Body.List {
				if as, ok := st.(*ast.AssignStmt); ok && len(as.Lhs) == 1 && field(as.Lhs[0]) == fld {
					defaults[as] = true
				}
			}
		case *ast.AssignStmt:
			if defaults[n] {
				break
			}
			for _, e := range n.Lhs {
				lvalue(e)
			}
		case *ast.IncDecStmt:
			lvalue(n.X)
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				for _, e := range []ast.Expr{n.Key, n.Value} {
					if e != nil {
						lvalue(e)
					}
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				lvalue(n.X)
			}
		case *ast.SliceExpr:
			if t := info.TypeOf(n.X); t != nil {
				if _, arr := t.Underlying().(*types.Array); arr {
					lvalue(n.X)
				}
			}
		case *ast.SelectorExpr:
			sel := info.Selections[n]
			if sel == nil || sel.Kind() != types.MethodVal {
				break
			}
			recv := sel.Obj().Type().(*types.Signature).Recv()
			if _, ptrRecv := recv.Type().(*types.Pointer); !ptrRecv {
				break
			}
			if t := info.TypeOf(n.X); t != nil {
				if _, ptr := t.Underlying().(*types.Pointer); !ptr {
					lvalue(n.X)
				}
			}
		case *ast.InterfaceType:
			if it, ok := info.TypeOf(n).(*types.Interface); ok {
				l.ifaces = append(l.ifaces, it)
			}
		case *ast.CompositeLit:
			t := info.TypeOf(n)
			if t == nil {
				break
			}
			if p, ok := t.Underlying().(*types.Pointer); ok {
				t = p.Elem()
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok && info.Uses[id] != nil {
						setField(info.Uses[id])
						if v := info.Types[kv.Value].Value; id.Name == "GoName" && v != nil && v.Kind() == constant.String {
							a.reflect(module, constant.StringVal(v))
						}
					}
				} else if i < st.NumFields() {
					setField(st.Field(i))
				}
			}
		}
		return true
	})
}

// markInterfaceMethods exempts each method that some non-test interface
// of the target — the modules' own, the standard library's they import,
// error, and anonymous interface types — needs to be satisfied.
func (a *auditor) markInterfaceMethods(l *auditLoader) {
	var named []*types.Named
	ifaces := append(append([]*types.Interface{}, stdDynamic...), l.ifaces...)
	seen := map[*types.Package]bool{}
	var visit func(pkg *types.Package, own bool)
	visit = func(pkg *types.Package, own bool) {
		if pkg == nil || seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok || n.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := n.Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, it)
			} else if own {
				named = append(named, n)
			}
		}
		for _, imp := range pkg.Imports() {
			_, mine := l.pkgs[imp.Path()]
			visit(imp, mine)
		}
	}
	for _, path := range l.order {
		visit(l.pkgs[path].base, true)
	}
	byFirst := map[string][]*types.Interface{}
	for _, it := range ifaces {
		if it.NumMethods() > 0 {
			name := it.Method(0).Name()
			byFirst[name] = append(byFirst[name], it)
		}
	}
	for _, n := range named {
		ptr := types.NewPointer(n)
		ms := types.NewMethodSet(ptr)
		for i := 0; i < ms.Len(); i++ {
			for _, it := range byFirst[ms.At(i).Obj().Name()] {
				if !types.Implements(ptr, it) {
					continue
				}
				for j := 0; j < it.NumMethods(); j++ {
					m := it.Method(j)
					obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name())
					if obj != nil {
						if d := a.decls[origin(obj).Pos()]; d != nil {
							d.satisfies = true
						}
					}
				}
			}
		}
	}
}

// stdDynamic are interfaces the standard library tests for inside
// function bodies, which the source importer does not type: error
// wrapping and matching for errors.Is and errors.As.
var stdDynamic = func() []*types.Interface {
	const src = `package p
type (
	unwrap    interface{ Unwrap() error }
	unwrapAll interface{ Unwrap() []error }
	is        interface{ Is(error) bool }
	as        interface{ As(any) bool }
)`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "dynamic.go", src, 0)
	if err != nil {
		panic(err)
	}
	pkg, err := new(types.Config).Check("p", fset, []*ast.File{f}, nil)
	if err != nil {
		panic(err)
	}
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, name := range pkg.Scope().Names() {
		out = append(out, pkg.Scope().Lookup(name).Type().Underlying().(*types.Interface))
	}
	return out
}()

// findings lists what the accumulated declarations and references
// reject, sorted by key.
func (a *auditor) findings() []auditFinding {
	groupUsed := map[*auditDecl]bool{}
	for _, d := range a.decls {
		if d.group != nil && (d.test || d.nonTest) {
			groupUsed[d.group] = true
		}
	}
	var out []auditFinding
	for _, d := range a.decls {
		var msg string
		switch d.kind {
		case kindExported:
			if d.nonTest || d.satisfies || (d.what == "method" && a.reflected[d.module][d.key[strings.LastIndexByte(d.key, '.')+1:]]) {
				continue
			}
			msg = "referenced only from _test.go files"
			if !d.test {
				msg = "referenced nowhere"
			}
		case kindField:
			if d.written {
				continue
			}
			msg = "never set outside _test.go files"
		case kindOrphan:
			if d.test || d.nonTest || groupUsed[d.group] {
				continue
			}
			msg = "referenced nowhere"
		case kindTestMethod:
			msg = "declared in a _test.go file on a library type"
		}
		out = append(out, auditFinding{
			key: d.key, module: d.module,
			msg: fmt.Sprintf("%s %s (%s:%d): %s", d.what, d.key, d.pos.Filename, d.pos.Line, msg),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].msg < out[j].msg })
	return out
}

var (
	auditOnce   sync.Once
	auditResult []auditFinding
	auditErr    error
	auditTypes  []string
)

// runAudit audits the repository and the fixture tree in one pass, so the
// standard library is typed once for both tests. It is typed once for
// all targets too, for linux/amd64 without cgo: a target's own file that
// needs an API absent there fails the audit with a type error.
func runAudit() ([]auditFinding, []string, error) {
	auditOnce.Do(func() {
		// The source importer reads build.Default whenever it imports.
		saved := build.Default
		defer func() { build.Default = saved }()
		build.Default.GOOS, build.Default.GOARCH = "linux", "amd64"
		build.Default.BuildTags, build.Default.CgoEnabled = nil, false

		a := newAuditor(append(append([]auditModule{}, repoModules...), fixtureModules...))
		for _, t := range auditTargets {
			if auditErr = a.run(t); auditErr != nil {
				return
			}
		}
		auditResult, auditTypes = a.findings(), a.typeErrs
	})
	return auditResult, auditTypes, auditErr
}

// allowEntry returns the allowlist entry that covers key: the key itself
// or the type whose method or field it names. A package path alone
// covers nothing, so such an entry matches no finding.
func allowEntry(key string) (string, bool) {
	slash := strings.LastIndexByte(key, '/')
	for k := key; strings.LastIndexByte(k, '.') > slash; k = k[:strings.LastIndexByte(k, '.')] {
		if _, ok := auditAllow[k]; ok {
			return k, true
		}
	}
	return "", false
}

func TestCallerAudit(t *testing.T) {
	findings, typeErrs, err := runAudit()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range typeErrs {
		t.Errorf("type error: %s", e)
	}
	if len(auditAllow) > auditMaxAllow {
		t.Errorf("allowlist has %d entries, more than %d", len(auditAllow), auditMaxAllow)
	}
	used := map[string]bool{}
	n, allowedN := 0, 0
	for _, f := range findings {
		if strings.HasPrefix(f.module, "auditfix") {
			continue
		}
		n++
		if entry, ok := allowEntry(f.key); ok {
			used[entry] = true
			allowedN++
			continue
		}
		t.Errorf("%s", f.msg)
	}
	for k, r := range auditAllow {
		if r < reasonSharedTestDouble || r > reasonSharedFixture {
			t.Errorf("allowlist entry %s has no reason from the closed set", k)
		}
		if !used[k] {
			t.Errorf("allowlist entry %s matches no finding; delete it", k)
		}
	}
	t.Logf("%d findings, %d allowed by %d allowlist entries", n, allowedN, len(auditAllow))
}

// TestCallerAuditFixture runs the audit over testdata/audit, whose files
// say in comments which declarations must and must not be findings.
func TestCallerAuditFixture(t *testing.T) {
	findings, _, err := runAudit()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, f := range findings {
		if strings.HasPrefix(f.module, "auditfix") {
			got[f.key] = true
		}
	}
	want := []string{
		"lib.TestOnly",          // exported func only a test calls
		"lib.Widget.TestOnly",   // method only a test calls
		"lib.Options.Unset",     // option field read but never set
		"lib.Options.Defaulted", // option field only its own package defaults
		"lib.unused",            // unexported func nothing references
		"lib.TestOnlyGenerics",  // generic func only a test instantiates
		"lib.Widget.InTest",     // method a _test.go file adds to Widget
	}
	for _, k := range want {
		if !got[k] {
			t.Errorf("fixture finding %s missing", k)
		}
		delete(got, k)
	}
	for k := range got {
		t.Errorf("unexpected fixture finding %s", k)
	}
}
