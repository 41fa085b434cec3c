// Documentation checks: the markdown link graph must stay intact. Every
// relative link in the top-level docs has to resolve to a file or
// directory in the repository; CI runs this alongside the code tests, so
// a renamed file breaks the build, not the reader. The same goes for the
// package graph: an internal package nothing imports is documentation that
// compiles, and the README's theorem → API map is the maintained copy.
package hybrid_test

import (
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

func TestDocsLinksResolve(t *testing.T) {
	for _, doc := range []string{"README.md", "ARCHITECTURE.md", "ROADMAP.md", "PAPER.md", "PAPERS.md", "CHANGES.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			link := m[1]
			if strings.HasPrefix(link, "http://") || strings.HasPrefix(link, "https://") ||
				strings.HasPrefix(link, "mailto:") || strings.HasPrefix(link, "#") {
				continue // external links and in-page anchors are out of scope
			}
			path := link
			if i := strings.IndexByte(path, '#'); i >= 0 {
				path = path[:i]
			}
			if path == "" {
				continue
			}
			if _, err := os.Stat(path); err != nil {
				t.Errorf("%s: broken relative link %q", doc, link)
			}
		}
	}
}

var cmdName = regexp.MustCompile(`\bcmd/([\w-]+)`)

// TestDocsNameExistingCommands: every cmd/<dir> the README, ARCHITECTURE or
// the verify notes name must exist — a doc that tells the reader to run a
// deleted command is a broken link too.
func TestDocsNameExistingCommands(t *testing.T) {
	for _, doc := range []string{"README.md", "ARCHITECTURE.md", ".claude/skills/verify/SKILL.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		for _, m := range cmdName.FindAllStringSubmatch(string(data), -1) {
			if st, err := os.Stat(filepath.Join("cmd", m[1])); err != nil || !st.IsDir() {
				t.Errorf("%s names %s, which is not a directory", doc, m[0])
			}
		}
	}
}

// walkGo calls fn for every Go file of the repository, skipping hidden
// directories (.git, and the build cache a benchmark run leaves in
// .bench_build).
func walkGo(t *testing.T, fn func(path string) error) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if d != nil && d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		return fn(path)
	})
	if err != nil {
		t.Fatal(err)
	}
}

var mdName = regexp.MustCompile(`[\w./-]+\.md\b`)

// TestGoCommentsNameExistingDocs: a markdown file a Go comment names must
// exist, beside the Go file or at the repository root — a comment that
// sends the reader to a missing document is a broken link too.
func TestGoCommentsNameExistingDocs(t *testing.T) {
	walkGo(t, func(path string) error {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			for _, name := range mdName.FindAllString(cg.Text(), -1) {
				_, errHere := os.Stat(filepath.Join(filepath.Dir(path), name))
				_, errRoot := os.Stat(name)
				if errHere != nil && errRoot != nil {
					t.Errorf("%s: a comment names %s, which does not exist", path, name)
				}
			}
		}
		return nil
	})
}

// harness lists the test harnesses: packages whose non-test files exist for
// the tests, so a test file may be their only importer and their exported
// names need no non-test caller.
var harness = map[string]bool{"internal/simtest": true, "internal/chaos": true, "internal/experiments": true}

// TestEveryInternalPackageIsImported: every package under internal/ is
// imported by a non-test file outside its own directory — or, for the test
// harnesses, by a test file.
func TestEveryInternalPackageIsImported(t *testing.T) {
	packages := map[string]bool{} // directories under internal/ holding Go files
	imported := map[string]bool{}
	walkGo(t, func(path string) error {
		dir := filepath.ToSlash(filepath.Dir(path))
		if strings.HasPrefix(dir, "internal/") {
			packages[dir] = true
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			pkg, _ := strconv.Unquote(imp.Path.Value)
			pkg, ok := strings.CutPrefix(pkg, "repro/")
			if ok && pkg != dir && (harness[pkg] || !strings.HasSuffix(path, "_test.go")) {
				imported[pkg] = true
			}
		}
		return nil
	})
	for pkg := range packages {
		if !imported[pkg] {
			t.Errorf("%s is imported by no file outside itself: delete it or use it", pkg)
		}
	}
}

// TestArchitectureLineTable: ARCHITECTURE.md's code-size table lists the
// non-test Go lines of every package outside cmd/bench as the tree has them.
// A change that adds or removes lines updates it:
// go test -run TestArchitectureLineTable -update .
func TestArchitectureLineTable(t *testing.T) {
	const doc, begin, end = "ARCHITECTURE.md", "<!-- code-size:begin -->\n", "<!-- code-size:end -->"
	lines := map[string]int{}
	walkGo(t, func(path string) error {
		dir := filepath.ToSlash(filepath.Dir(path))
		if strings.HasSuffix(path, "_test.go") || dir == "cmd/bench" || strings.HasPrefix(dir, "cmd/bench/") {
			return nil
		}
		data, err := os.ReadFile(path)
		lines[dir] += bytes.Count(data, []byte("\n"))
		return err
	})
	var table strings.Builder
	table.WriteString("| package | non-test lines |\n|---|--:|\n")
	total := 0
	for _, dir := range slices.Sorted(maps.Keys(lines)) {
		fmt.Fprintf(&table, "| `%s` | %d |\n", dir, lines[dir])
		total += lines[dir]
	}
	fmt.Fprintf(&table, "| total | %d |\n", total)

	data, err := os.ReadFile(doc)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	i, j := strings.Index(text, begin), strings.Index(text, end)
	if i < 0 || j < i {
		t.Fatalf("%s: no %q ... %q section", doc, begin, end)
	}
	if got := text[i+len(begin) : j]; got != table.String() {
		if *updateGolden {
			text = text[:i+len(begin)] + table.String() + text[j:]
			if err := os.WriteFile(doc, []byte(text), 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		t.Errorf("%s: the code-size table is stale (rerun with -update); the tree has\n%s", doc, table.String())
	}
}

// unusedExports lists the exported names TestEveryExportedNameHasACaller
// tolerates without a non-test caller, each with the reason it stays. An
// entry that names nothing, or whose name has gained a caller, fails the test.
var unusedExports = map[string]string{
	"internal/persist.SetFS":          "fault seam: the persistence tests swap in a failing filesystem",
	"internal/dist.WithFaults":        "fault seam: the frame-fault tests hand the chaos layer's hook to the dist engine",
	"internal/serve.Server.SetChaos":  "fault seam: the chaos soak installs its HTTP and rebuild faults",
	"internal/sim.Stepper.Advance":    "the ZeroAlloc gates of flood, routing and hybridapsp step a run round by round with it",
	"internal/sim.Env.SendLocal":      "the model's point-to-point local send: the engine tests of sim and dist pin its delivery order and its non-neighbour check",
	"internal/graph.LimitedDistance":  "test oracle for the h-limited distances of kssp and skeleton",
	"internal/diameter.CheckEstimate": "test oracle for the diameter bounds, and the check a CLI diameter verdict is to use",
}

// TestEveryExportedNameHasACaller: every exported package-level name, method
// and struct field declared in a non-test file under internal/ or
// cmd/internal/ is referred to by a non-test file of this module (commands
// and examples included) or of the cmd/bench module. A method an interface
// the code uses asks for counts as used; the harnesses and unusedExports are
// exempt. A name only tests use is a test helper in the wrong file, or dead.
func TestEveryExportedNameHasACaller(t *testing.T) {
	m := loadModule(t)
	used := m.usedObjects()
	ifaces := m.interfaces()
	found := map[string]bool{}
	check := func(key string, obj types.Object) {
		found[key] = true
		_, allowed := unusedExports[key]
		pos := m.fset.Position(obj.Pos())
		switch {
		case !used[obj] && !allowed:
			t.Errorf("%s:%d: %s is exported, but no non-test file refers to it: delete it, move it into a _test.go file, or list it in unusedExports with a reason",
				pos.Filename, pos.Line, key)
		case used[obj] && allowed:
			t.Errorf("%s:%d: %s is listed in unusedExports, but a non-test file refers to it: drop the entry", pos.Filename, pos.Line, key)
		}
	}
	for _, p := range m.pkgs {
		if !strings.HasPrefix(p.dir, "internal/") && !strings.HasPrefix(p.dir, "cmd/internal/") || harness[p.dir] {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			key := p.dir + "." + name
			if obj.Exported() {
				check(key, obj)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := range named.NumMethods() {
				if fn := named.Method(i); fn.Exported() {
					used[fn] = used[fn] || implementsUsed(named, fn, ifaces)
					check(key+"."+fn.Name(), fn)
				}
			}
			switch under := named.Underlying().(type) {
			case *types.Struct:
				for i := range under.NumFields() {
					if f := under.Field(i); f.Exported() {
						check(key+"."+f.Name(), f)
					}
				}
			case *types.Interface:
				for i := range under.NumExplicitMethods() {
					if fn := under.ExplicitMethod(i); fn.Exported() {
						check(key+"."+fn.Name(), fn)
					}
				}
			}
		}
	}
	for key := range unusedExports {
		if !found[key] {
			t.Errorf("unusedExports lists %s, which names no exported identifier under internal/ or cmd/internal/: drop the entry", key)
		}
	}
}

// goPackage is one package of the repository's non-test Go code.
type goPackage struct {
	dir     string // slash path from the repository root
	path    string // import path
	imports []string
	files   []*ast.File
	types   *types.Package
}

// goModule is the repository's non-test Go code, type-checked: the root
// module and the cmd/bench module, whose import paths share the root's.
type goModule struct {
	fset *token.FileSet
	pkgs []*goPackage // in import order
	info *types.Info
}

// loadModule parses the non-test files of every package in the repository
// and type-checks the packages in import order, importing only the standard
// library, from source. It builds without cgo, whose standard library
// packages are slower to check and need a C compiler.
func loadModule(t *testing.T) *goModule {
	t.Helper()
	defer func(cgo bool) { build.Default.CgoEnabled = cgo }(build.Default.CgoEnabled)
	build.Default.CgoEnabled = false
	m := &goModule{
		fset: token.NewFileSet(),
		info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	byPath := map[string]*goPackage{}
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(dir, 0)
		if errors.As(err, new(*build.NoGoError)) {
			return nil
		}
		if err != nil {
			return err
		}
		p := &goPackage{dir: filepath.ToSlash(dir), path: "repro", imports: bp.Imports}
		if p.dir != "." {
			p.path += "/" + p.dir
		}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files = append(p.files, f)
		}
		byPath[p.path] = p
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	visited := map[*goPackage]bool{}
	var visit func(p *goPackage)
	visit = func(p *goPackage) {
		if visited[p] {
			return
		}
		visited[p] = true
		for _, imp := range p.imports {
			if q := byPath[imp]; q != nil {
				visit(q)
			}
		}
		m.pkgs = append(m.pkgs, p)
	}
	for _, path := range slices.Sorted(maps.Keys(byPath)) {
		visit(byPath[path])
	}
	std := importer.ForCompiler(m.fset, "source", nil)
	conf := types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			if p := byPath[path]; p != nil {
				return p.types, nil
			}
			return std.Import(path)
		}),
		Sizes: types.SizesFor("gc", build.Default.GOARCH),
	}
	for _, p := range m.pkgs {
		if p.types, err = conf.Check(p.path, m.fset, p.files, m.info); err != nil {
			t.Fatalf("type-check %s: %v", p.dir, err)
		}
	}
	return m
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// usedObjects returns the objects an identifier of the module refers to
// outside the object's own declaration (a recursive call is no caller), an
// instantiated method or field as its generic origin. An unkeyed struct
// literal uses every field, and a promoted selection every embedded field on
// its path.
func (m *goModule) usedObjects() map[types.Object]bool {
	declEnd := map[token.Pos]token.Pos{} // a func's name → the end of its declaration
	for _, p := range m.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					declEnd[fd.Name.Pos()] = fd.End()
				}
			}
		}
	}
	used := map[types.Object]bool{}
	for id, obj := range m.info.Uses {
		obj = origin(obj)
		if end, ok := declEnd[obj.Pos()]; ok && id.Pos() > obj.Pos() && id.Pos() < end {
			continue
		}
		used[obj] = true
	}
	for _, sel := range m.info.Selections {
		typ := sel.Recv()
		for _, i := range sel.Index()[:len(sel.Index())-1] {
			f := structOf(typ).Field(i)
			used[origin(f)] = true
			typ = f.Type()
		}
	}
	for _, p := range m.pkgs {
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.CompositeLit); ok && len(lit.Elts) > 0 {
					if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); !keyed {
						if st := structOf(m.info.Types[lit].Type); st != nil {
							for i := range st.NumFields() {
								used[origin(st.Field(i))] = true
							}
						}
					}
				}
				return true
			})
		}
	}
	return used
}

// interfaces returns the interfaces the module uses: those it declares or
// names, and those declared by the standard library packages it imports —
// fmt's Stringer, say, which a %v verb uses unnamed.
func (m *goModule) interfaces() []*types.Interface {
	var out []*types.Interface
	add := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			if n, ok := typ.(*types.Named); !ok || n.TypeParams().Len() == 0 {
				out = append(out, it)
			}
		}
	}
	add(types.Universe.Lookup("error").Type())
	for _, tv := range m.info.Types {
		if tv.Type != nil {
			add(tv.Type)
		}
	}
	scopes := map[*types.Scope]bool{}
	for _, p := range m.pkgs {
		scopes[p.types.Scope()] = true
		for _, imp := range p.types.Imports() {
			scopes[imp.Scope()] = true
		}
	}
	for scope := range scopes {
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
	}
	return out
}

// implementsUsed reports whether fn, a method of named, is one an interface
// in ifaces asks for: the interface has a method of fn's name, and named or
// its pointer implements it (for a generic type, which implements nothing
// uninstantiated: the method has fn's signature).
func implementsUsed(named *types.Named, fn *types.Func, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		for i := range it.NumMethods() {
			im := it.Method(i)
			if im.Name() != fn.Name() {
				continue
			}
			if named.TypeParams().Len() > 0 {
				if types.Identical(im.Type(), fn.Type()) {
					return true
				}
			} else if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
				return true
			}
		}
	}
	return false
}

// origin returns the generic origin of an instantiated method or field.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// structOf returns the struct type under typ, or under the type typ points
// to; nil if there is none.
func structOf(typ types.Type) *types.Struct {
	if typ == nil {
		return nil
	}
	if ptr, ok := typ.Underlying().(*types.Pointer); ok {
		typ = ptr.Elem()
	}
	st, _ := typ.Underlying().(*types.Struct)
	return st
}
