package repro

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceAllow lists the exports under internal/ that stay exported
// although no production code outside their package calls them. Each
// entry is a reference oracle that other packages' tests check a fast
// path against, or a helper that other packages' tests need; the value
// says which and why. An entry that production starts calling, or that
// is no longer exported, fails TestPublicSurface as stale.
var surfaceAllow = map[string]string{
	// Reference oracles.
	"radio.(*Channel).ResolveFrame":       "oracle: the one-receiver decision radio's tests hold BatchResolve to, draw for draw",
	"radio.(*Channel).FinishFrame":        "oracle: the one-receiver end-of-frame decision radio's tests hold BatchFinish to",
	"radio.(*Channel).MeanRxPowerLinkDBm": "oracle: the one-receiver mean power radio's tests hold BatchMeanRxPower to, bit for bit",
	"traffic.(*Simulation).PositionNow":   "oracle: the exact position a replayed World must equal at every recorded instant",
	"packet.(*Frame).Encode":              "oracle: the wire codec mac's TestDeliveredFramesImmutable checks WireSize against",
	"packet.Decode":                       "oracle: the wire codec mac's TestDeliveredFramesImmutable round-trips delivered frames through",
	"analysis.StudyView":                  "oracle: the projection of a full round that scenario's and harness's tests hold a round recorded into a study collector (trace.NewStudyCollector) to, record for record",

	// Cross-package test helpers.
	"faultpoint.(*Point).MustArm":        "cross-package test helper: harness tests arm their faults with it",
	"faultpoint.DisarmAll":               "cross-package test helper: harness and cmd/experiments tests clean up armed faults with it",
	"harness.(*Context).RunUnits":        "cross-package test helper: cmd/sweepd's progress test runs a synthetic two-unit experiment through it",
	"harness.(*ResultStore).Stats":       "cross-package test helper: scenario's stored-summary test reads the run's result-store counters through Runner.Store",
	"harness.(*Runner).Store":            "cross-package test helper: scenario's stored-summary test reads the run's result-store counters",
	"metrics.(*Counter).Value":           "cross-package test helper: scenario and cmd/sweepd tests read their counters' values",
	"traffic.(*Simulation).MeanSpeedMPS": "cross-package test helper: the root traffic-grid benchmark reports the end-of-run mean speed",
}

// TestPublicSurface pins the public surface of internal/ to what
// production calls: every exported func, and every exported method of
// an exported type, declared in a non-test file under internal/ must be
// referenced from a non-test file of another package of the root module
// or of bench/, satisfy an interface (its name is a method of an
// interface declared in the module, or String, Error, MarshalJSON or
// UnmarshalJSON), or be listed in surfaceAllow with a reason.
func TestPublicSurface(t *testing.T) {
	fset := token.NewFileSet()
	var pkgs []*surfacePkg
	for _, m := range []struct{ dir, path string }{{".", "repro"}, {"bench", "repro/bench"}} {
		ps, err := parseModule(fset, m.dir, m.path)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, ps...)
	}
	findings, checked, err := checkSurface(fset, pkgs, surfaceAllow)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d exported funcs and methods under internal/ checked, %d allow-listed", checked, len(surfaceAllow))
	for _, f := range findings {
		t.Error(f)
	}
}

// surfacePkg is one parsed, and after checkSurface type-checked,
// package of non-test files.
type surfacePkg struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// parseModule parses the non-test files of every package of the module
// rooted at dir whose import path is modPath, honouring build
// constraints. Nested modules, testdata and dot or underscore
// directories are skipped.
func parseModule(fset *token.FileSet, dir, modPath string) ([]*surfacePkg, error) {
	var pkgs []*surfacePkg
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != dir {
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		var files []*ast.File
		for _, e := range entries {
			n := e.Name()
			if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
				continue
			}
			match, err := build.Default.MatchFile(path, n)
			if err != nil {
				return err
			}
			if !match {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(path, n), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files = append(files, f)
		}
		if len(files) == 0 {
			return nil
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		importPath := modPath
		if rel != "." {
			importPath += "/" + filepath.ToSlash(rel)
		}
		pkgs = append(pkgs, &surfacePkg{path: importPath, files: files})
		return nil
	})
	return pkgs, err
}

// surfaceImporter type-checks the packages it was given from their
// parsed files, each once, and takes every other import from the
// compiler's export data.
type surfaceImporter struct {
	fset *token.FileSet
	pkgs map[string]*surfacePkg
	std  types.Importer
}

func (im *surfaceImporter) Import(path string) (*types.Package, error) {
	p, ok := im.pkgs[path]
	if !ok {
		return im.std.Import(path)
	}
	if p.types != nil {
		return p.types, nil
	}
	info := &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: im}
	tp, err := conf.Check(path, im.fset, p.files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	p.types, p.info = tp, info
	return tp, nil
}

// checkSurface type-checks pkgs and returns one finding per export
// under internal/ that no other package's production code references
// and that neither satisfies an interface nor is allow-listed, plus one
// per allow-list entry without a reason or gone stale. checked counts
// the exported funcs and methods considered.
func checkSurface(fset *token.FileSet, pkgs []*surfacePkg, allow map[string]string) (findings []string, checked int, err error) {
	im := &surfaceImporter{
		fset: fset,
		pkgs: map[string]*surfacePkg{},
		std:  importer.ForCompiler(fset, "gc", nil),
	}
	for _, p := range pkgs {
		im.pkgs[p.path] = p
	}
	for _, p := range pkgs {
		if _, err := im.Import(p.path); err != nil {
			return nil, 0, err
		}
	}

	ifaceMethods := map[string]bool{"String": true, "Error": true, "MarshalJSON": true, "UnmarshalJSON": true}
	used := map[*types.Func]bool{}
	for _, p := range pkgs {
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					for _, m := range it.Methods.List {
						if _, ok := m.Type.(*ast.FuncType); ok {
							for _, name := range m.Names {
								ifaceMethods[name.Name] = true
							}
						}
					}
				}
				return true
			})
		}
		for _, obj := range p.info.Uses {
			if fn, ok := obj.(*types.Func); ok && fn.Pkg() != p.types {
				used[fn.Origin()] = true
			}
		}
	}

	unused := map[string]bool{}
	for _, p := range pkgs {
		i := strings.Index(p.path+"/", "/internal/")
		if i < 0 {
			continue
		}
		short := p.path[i+len("/internal/"):]
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := p.info.Defs[fd.Name].(*types.Func)
				name, ok := surfaceName(short, fn)
				if !ok {
					continue
				}
				checked++
				if used[fn] || (fd.Recv != nil && ifaceMethods[fd.Name.Name]) {
					continue
				}
				unused[name] = true
			}
		}
	}
	for name := range unused {
		if _, ok := allow[name]; !ok {
			findings = append(findings, fmt.Sprintf("%s is exported, but no production code outside its package calls it: unexport it, delete it, or allow-list it with a reason", name))
		}
	}
	for name, reason := range allow {
		switch {
		case !unused[name]:
			findings = append(findings, fmt.Sprintf("allow-list entry %s is stale: it is no longer exported, or production outside its package now calls it", name))
		case strings.TrimSpace(reason) == "":
			findings = append(findings, fmt.Sprintf("allow-list entry %s gives no reason", name))
		}
	}
	sort.Strings(findings)
	return findings, checked, nil
}

// surfaceName names fn as pkg.Func, pkg.T.Method or pkg.(*T).Method;
// ok is false for a method of an unexported type.
func surfaceName(pkg string, fn *types.Func) (name string, ok bool) {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return pkg + "." + fn.Name(), true
	}
	t, ptr := recv.Type(), false
	if p, isPtr := t.(*types.Pointer); isPtr {
		t, ptr = p.Elem(), true
	}
	named, isNamed := t.(*types.Named)
	if !isNamed || !named.Obj().Exported() {
		return "", false
	}
	if ptr {
		return fmt.Sprintf("%s.(*%s).%s", pkg, named.Obj().Name(), fn.Name()), true
	}
	return fmt.Sprintf("%s.%s.%s", pkg, named.Obj().Name(), fn.Name()), true
}

// TestPublicSurfaceChecker runs the checker on an in-memory module: it
// must flag exactly the dead export and the stale allow-list entry, and
// pass a called generic function, a called method of a generic type, a
// method satisfying a named interface, a method named only by an inline
// type-parameter constraint and an allow-listed name. An allow-list
// entry without a reason is a finding too.
func TestPublicSurfaceChecker(t *testing.T) {
	files := map[string]string{
		"fix/internal/lib": `package lib

func Dead() {}

func Map[E any](e E) E { return e }

type Box[E any] struct{ v E }

func (b *Box[E]) Get() E { return b.v }

func Allowed() {}

func Stale() {}

type T struct{}

func (T) Say() string { return "" }

func (*T) Base() *T { return nil }

func (*T) helper() {}
`,
		"fix/cmd/app": `package main

import "fix/internal/lib"

type Sayer interface{ Say() string }

func base[P interface{ Base() *lib.T }](p P) *lib.T { return p.Base() }

func main() {
	var s Sayer = lib.T{}
	_ = s.Say()
	_ = base(&lib.T{})
	_ = lib.Map(1)
	_ = (&lib.Box[int]{}).Get()
	lib.Stale()
}
`,
	}
	fset := token.NewFileSet()
	var pkgs []*surfacePkg
	for path, src := range files {
		f, err := parser.ParseFile(fset, path+"/x.go", src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, &surfacePkg{path: path, files: []*ast.File{f}})
	}
	findings, checked, err := checkSurface(fset, pkgs, map[string]string{
		"lib.Allowed": "oracle: kept for the fixture's tests",
		"lib.Stale":   "cross-package test helper, until production called it",
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked != 7 {
		t.Errorf("checked %d exports, want 7", checked)
	}
	if len(findings) != 2 ||
		!strings.HasPrefix(findings[0], "allow-list entry lib.Stale is stale") ||
		!strings.HasPrefix(findings[1], "lib.Dead is exported") {
		t.Fatalf("findings:\n%s\nwant the stale lib.Stale entry and the dead lib.Dead, only", strings.Join(findings, "\n"))
	}

	findings, _, err = checkSurface(fset, pkgs, map[string]string{"lib.Allowed": " ", "lib.Dead": "oracle"})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || !strings.HasPrefix(findings[0], "allow-list entry lib.Allowed gives no reason") {
		t.Fatalf("findings:\n%s\nwant only the reasonless lib.Allowed entry", strings.Join(findings, "\n"))
	}
}
