// Package golint is a small, dependency-free static pass over the
// repository's own Go source: it flags iteration over Go maps in any
// function reachable from the state fingerprinting entry points.
//
// The model checker's verdict determinism rests on fingerprints being
// byte-identical for equal states; Go map iteration order is
// deliberately randomized, so a `for range m` over a map anywhere in
// the fingerprint call graph is a determinism bug even when every run
// happens to produce the same verdict. The dynamic tests cannot catch
// it reliably (the order can coincide), which is exactly the case for a
// static check.
//
// The pass is a deliberately minimal go/analysis-style framework built
// on the standard library only (go/parser + go/types; no x/tools): it
// loads packages and their in-module dependencies from source once
// (LoadPackages), builds a conservative static call graph from the
// requested root functions (direct calls, method calls, and interface
// calls widened to every same-name concrete method in the loaded
// packages), and reports every range statement over a map-typed operand
// in the reachable set. Every pass, here and in package gortlint, takes
// the loaded *Module, so one load serves them all.
package golint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Position
	Func    string // the containing function, types.Func notation
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Func, d.Message)
}

// pkg is one loaded source package: syntax, types, and type info.
type pkg struct {
	files []*ast.File
	info  *types.Info
	tpkg  *types.Package
}

// loader parses and type-checks in-module packages from source,
// delegating everything else (the standard library) to the compiler's
// source importer. Loaded packages keep their syntax and type info so
// the call graph can span the whole module.
type loader struct {
	fset    *token.FileSet
	modRoot string // module directory
	modPath string // module path from go.mod
	std     types.Importer
	pkgs    map[string]*pkg // by import path
	loading map[string]bool
}

func newLoader(modRoot, modPath string) *loader {
	fset := token.NewFileSet()
	return &loader{
		fset:    fset,
		modRoot: modRoot,
		modPath: modPath,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    make(map[string]*pkg),
		loading: make(map[string]bool),
	}
}

// Import implements types.Importer over the module + stdlib split.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.tpkg, nil
	}
	return l.std.Import(path)
}

// load parses and type-checks one in-module package by import path.
func (l *loader) load(path string) (*pkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("golint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := filepath.Join(l.modRoot, filepath.FromSlash(strings.TrimPrefix(path, l.modPath+"/")))
	if path == l.modPath {
		dir = l.modRoot
	}
	files, err := parseDir(l.fset, dir)
	if err != nil {
		return nil, err
	}
	info := &types.Info{
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Types:      make(map[ast.Expr]types.TypeAndValue),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("golint: type-checking %s: %w", path, err)
	}
	p := &pkg{files: files, info: info, tpkg: tpkg}
	l.pkgs[path] = p
	return p, nil
}

// parseDir parses the non-test Go files of dir in sorted order.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("golint: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// moduleOf walks up from dir to the enclosing go.mod and returns the
// module directory and module path.
func moduleOf(dir string) (root, path string, err error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("golint: %s/go.mod has no module line", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("golint: no go.mod above %s", dir)
		}
		d = parent
	}
}

// ModuleRoot walks up from dir to the enclosing go.mod and returns the
// module directory, so callers can address packages by repo-relative
// path regardless of their own working directory.
func ModuleRoot(dir string) (string, error) {
	root, _, err := moduleOf(dir)
	return root, err
}

// Check reports every range-over-map in a function reachable from the
// functions or methods of package pkg named in roots. Roots resolve in
// pkg only, so loading more packages into mod never adds entry points;
// the call graph they start from spans every loaded package.
//
// Reachability runs over the exported Module call graph (module.go),
// which includes edges for every function reference — direct calls,
// method values, function values, go/defer targets — not just direct
// call expressions.
func Check(mod *Module, pkg string, roots []string) ([]Diagnostic, error) {
	p, err := mod.Package(pkg)
	if err != nil {
		return nil, err
	}
	rootSet := make(map[string]bool, len(roots))
	for _, r := range roots {
		rootSet[r] = true
	}
	var work []*types.Func
	found := make(map[string]bool, len(roots))
	for _, f := range mod.Functions() {
		if f.Pkg == p && rootSet[f.Fn.Name()] {
			work = append(work, f.Fn)
			found[f.Fn.Name()] = true
		}
	}
	// It is an error for a root to match no declared function: a renamed
	// entry point must fail the lint, not trivially pass it.
	for _, r := range roots {
		if !found[r] {
			return nil, fmt.Errorf("golint: root %q matches no function declaration in %s", r, p.Path)
		}
	}

	reached := mod.Reachable(work)

	// Report map ranges in reached bodies. Nested function literals
	// belong to the enclosing declaration: they run, at the latest, when
	// the enclosing function's value escapes.
	var out []Diagnostic
	for fn := range reached {
		f := mod.FunctionFor(fn)
		if f == nil {
			continue
		}
		ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := f.Pkg.Info.Types[rs.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				out = append(out, Diagnostic{
					Pos:     mod.Fset().Position(rs.Pos()),
					Func:    fn.FullName(),
					Message: fmt.Sprintf("iteration over map %s in fingerprint call graph: order is randomized", tv.Type),
				})
			}
			return true
		})
	}
	SortDiagnostics(out)
	return out, nil
}
