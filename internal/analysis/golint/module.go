package golint

// This file exports the loader and call-graph machinery so sibling
// analyzers (package gortlint) can build passes on the same foundation:
// load in-module packages from source, enumerate function declarations
// with their syntax and type info, and compute conservative reachability.
//
// The call graph here fixes a soundness hole the original map-range pass
// shipped with: callees used to be collected only from call expressions
// with a direct identifier or selector callee, so a function referenced
// as a VALUE — a method value assigned to a variable, a function passed
// to an invoker, the target of a `go`/`defer` through a variable — never
// produced an edge, and anything reachable only through such a reference
// was invisible to every downstream check. Callees now include every
// *types.Func the body references in any position: strictly more edges,
// which is the sound direction for a reachability lint (the cost is
// over-approximation: a referenced-but-never-called function counts as
// reachable).

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Package is the exported view of one loaded source package.
type Package struct {
	// Path is the import path.
	Path string
	// Files is the package syntax in sorted file order (tests excluded).
	Files []*ast.File
	// Info holds the type-checker's Uses/Defs/Selections/Types maps.
	Info *types.Info
	// Types is the type-checked package.
	Types *types.Package
}

// Function pairs a declared function or method with its syntax and the
// package it lives in. Nested function literals belong to the enclosing
// declaration's body.
type Function struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
}

// FuncKey formats a function as the analyzers' configuration tables
// name it: "Recv.Name" for methods (with any pointer receiver
// stripped), "Name" for plain functions.
func FuncKey(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return n.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Name()
}

// Module is a loaded set of in-module packages plus everything they
// transitively import from the module, with the function index and the
// conservative call graph over the whole set.
type Module struct {
	fset   *token.FileSet
	pkgs   map[string]*Package
	funcs  map[*types.Func]*Function
	byName map[string][]*types.Func // concrete methods, for interface widening
}

// LoadPackages loads the packages at the given directories (resolving
// each against the enclosing module) and every in-module package they
// import, type-checking each package once however many roots share it.
// All directories must belong to the same module.
func LoadPackages(dirs ...string) (*Module, error) {
	if len(dirs) == 0 {
		return nil, fmt.Errorf("golint: LoadPackages needs at least one directory")
	}
	modRoot, modPath, err := moduleOf(dirs[0])
	if err != nil {
		return nil, err
	}
	l := newLoader(modRoot, modPath)
	for _, dir := range dirs {
		path, err := importPathFor(modRoot, modPath, dir)
		if err != nil {
			return nil, err
		}
		if _, err := l.load(path); err != nil {
			return nil, err
		}
	}
	return newModule(l), nil
}

// importPathFor maps a directory to its import path within the module.
func importPathFor(modRoot, modPath, dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(modRoot, abs)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return modPath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("golint: %s is outside module %s", dir, modRoot)
	}
	return modPath + "/" + filepath.ToSlash(rel), nil
}

// newModule indexes a loader's packages into the exported shape.
func newModule(l *loader) *Module {
	m := &Module{
		fset:   l.fset,
		pkgs:   make(map[string]*Package, len(l.pkgs)),
		funcs:  make(map[*types.Func]*Function),
		byName: make(map[string][]*types.Func),
	}
	for path, p := range l.pkgs {
		ep := &Package{Path: path, Files: p.files, Info: p.info, Types: p.tpkg}
		m.pkgs[path] = ep
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := p.info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				m.funcs[obj] = &Function{Fn: obj, Decl: fd, Pkg: ep}
				if fd.Recv != nil {
					m.byName[obj.Name()] = append(m.byName[obj.Name()], obj)
				}
			}
		}
	}
	return m
}

// Fset returns the module's file set (for positions).
func (m *Module) Fset() *token.FileSet { return m.fset }

// Package returns the loaded package with the given import path, or the
// one whose path ends with the given suffix when no exact match exists.
// A package that was not loaded is an error: a pass must never pass
// vacuously because its target fell out of the load.
func (m *Module) Package(path string) (*Package, error) {
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	for key, p := range m.pkgs {
		if strings.HasSuffix(key, "/"+path) {
			return p, nil
		}
	}
	return nil, fmt.Errorf("golint: package %s not loaded", path)
}

// Functions returns every declared function with a body across the
// loaded packages, in file-position order.
func (m *Module) Functions() []*Function {
	out := make([]*Function, 0, len(m.funcs))
	for _, f := range m.funcs {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := m.fset.Position(out[i].Decl.Pos()), m.fset.Position(out[j].Decl.Pos())
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	return out
}

// FunctionFor returns the declaration for a function object, or nil when
// the object was not declared in a loaded package (stdlib).
func (m *Module) FunctionFor(fn *types.Func) *Function { return m.funcs[fn] }

// callees returns the static callees of one function: every *types.Func
// the body references — direct calls, method calls, method values,
// function values, go/defer targets — with interface methods widened to
// every same-name concrete method among the loaded packages.
func (m *Module) callees(f *Function) []*types.Func {
	var out []*types.Func
	seen := make(map[*types.Func]bool)
	add := func(fn *types.Func) {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
			// Interface dispatch or method value: widen to every concrete
			// method with this name. Over-approximates, which is the sound
			// direction for a reachability lint.
			for _, c := range m.byName[fn.Name()] {
				if !seen[c] {
					seen[c] = true
					out = append(out, c)
				}
			}
			return
		}
		if !seen[fn] {
			seen[fn] = true
			out = append(out, fn)
		}
	}
	ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if fn, ok := f.Pkg.Info.Uses[id].(*types.Func); ok {
			add(fn)
		}
		return true
	})
	return out
}

// Reachable computes the functions reachable from the given roots over
// the static call graph.
func (m *Module) Reachable(roots []*types.Func) map[*types.Func]bool {
	reached := make(map[*types.Func]bool)
	work := append([]*types.Func(nil), roots...)
	for len(work) > 0 {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		if reached[fn] {
			continue
		}
		reached[fn] = true
		f, ok := m.funcs[fn]
		if !ok {
			continue // declared outside the loaded packages (stdlib)
		}
		for _, callee := range m.callees(f) {
			if !reached[callee] {
				work = append(work, callee)
			}
		}
	}
	return reached
}

// SpawnRoots collects the functions referenced inside `go` statements of
// the given package: for `go f(...)` that is f; for `go func(){...}(...)`
// it is every function the literal (or its arguments) references. These
// are the entry points of spawned goroutines — reachability from them is
// what runs off the spawning goroutine's thread of control.
func (m *Module) SpawnRoots(p *Package) []*types.Func {
	var out []*types.Func
	seen := make(map[*types.Func]bool)
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			ast.Inspect(gs.Call, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				if fn, ok := p.Info.Uses[id].(*types.Func); ok && !seen[fn] {
					seen[fn] = true
					out = append(out, fn)
				}
				return true
			})
			return true
		})
	}
	return out
}
