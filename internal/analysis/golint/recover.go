package golint

import (
	"fmt"
	"go/ast"
	"sort"
)

// CheckGoRecover reports every `go` statement in the loaded package pkg
// whose spawned function is not guarded by a deferred recover.
//
// A panic in a goroutine that nobody recovers crashes the whole
// process: in this repository that means a multi-hour verification run
// dies with nothing written, which is exactly what the panic-containment
// layer in package explore exists to prevent. This pass keeps the
// property from regressing: every worker spawn must install its guard.
//
// The pass reads only the package's syntax (no type information), so
// its resolution is name-based and deliberately conservative:
//
//   - `go func() {...}()`: the literal's body must defer a recover
//     guard.
//   - `go f(...)` / `go r.m(...)`: some same-package function or method
//     declaration with that name must defer a recover guard in its
//     body; if no declaration is found at all (e.g. the callee lives in
//     another package), the spawn is flagged as unresolvable.
//
// A "recover guard" is a DeferStmt in the spawned function's own body
// (not inside a nested function literal — a nested defer guards the
// wrong frame) whose deferred function calls recover() directly:
// either `defer func() { ... recover() ... }()` or `defer g(...)` where
// g's declaration calls recover() directly. Go only honours recover
// when the deferred function itself calls it, so transitive calls do
// not count.
func CheckGoRecover(mod *Module, pkg string) ([]Diagnostic, error) {
	p, err := mod.Package(pkg)
	if err != nil {
		return nil, err
	}

	// Function and method declarations by bare name. Name collisions
	// (methods on different receivers) are merged: if ANY declaration
	// with the name recovers, the guard counts — the sound direction for
	// a lint is over-approximating guards only when the alternative is
	// resolving types, and under-approximating them everywhere else.
	decls := make(map[string][]*ast.FuncDecl)
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				decls[fd.Name.Name] = append(decls[fd.Name.Name], fd)
			}
		}
	}

	recovers := func(name string) bool {
		for _, fd := range decls[name] {
			if callsRecoverDirectly(fd.Body) {
				return true
			}
		}
		return false
	}

	// guarded reports whether body defers a recover guard at its own
	// frame level.
	guarded := func(body *ast.BlockStmt) bool {
		found := false
		inspectOwnFrame(body, func(n ast.Node) {
			ds, ok := n.(*ast.DeferStmt)
			if !ok || found {
				return
			}
			switch fun := ast.Unparen(ds.Call.Fun).(type) {
			case *ast.FuncLit:
				if callsRecoverDirectly(fun.Body) {
					found = true
				}
			case *ast.Ident:
				if fun.Name == "recover" || recovers(fun.Name) {
					found = true
				}
			case *ast.SelectorExpr:
				if recovers(fun.Sel.Name) {
					found = true
				}
			}
		})
		return found
	}

	var out []Diagnostic
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				gs, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				var msg string
				switch fun := ast.Unparen(gs.Call.Fun).(type) {
				case *ast.FuncLit:
					if !guarded(fun.Body) {
						msg = "goroutine has no deferred recover guard: a worker panic kills the whole run"
					}
				case *ast.Ident:
					msg = checkNamedSpawn(fun.Name, decls, guarded)
				case *ast.SelectorExpr:
					msg = checkNamedSpawn(fun.Sel.Name, decls, guarded)
				default:
					msg = "goroutine spawns an unresolvable function: cannot verify its recover guard"
				}
				if msg != "" {
					out = append(out, Diagnostic{
						Pos:     mod.Fset().Position(gs.Pos()),
						Func:    fd.Name.Name,
						Message: msg,
					})
				}
				return true
			})
		}
	}
	SortDiagnostics(out)
	return out, nil
}

// checkNamedSpawn validates `go name(...)`: every same-package
// declaration of name must carry its own guard (any unguarded candidate
// may be the one that runs).
func checkNamedSpawn(name string, decls map[string][]*ast.FuncDecl, guarded func(*ast.BlockStmt) bool) string {
	fds := decls[name]
	if len(fds) == 0 {
		return fmt.Sprintf("goroutine spawns %s, which has no declaration in this package: cannot verify its recover guard", name)
	}
	for _, fd := range fds {
		if !guarded(fd.Body) {
			return fmt.Sprintf("goroutine function %s has no deferred recover guard: a worker panic kills the whole run", name)
		}
	}
	return ""
}

// callsRecoverDirectly reports whether body calls recover() in its own
// frame (not inside a nested function literal): only such calls stop a
// panic per the language spec.
func callsRecoverDirectly(body *ast.BlockStmt) bool {
	found := false
	inspectOwnFrame(body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "recover" {
			found = true
		}
	})
	return found
}

// inspectOwnFrame walks body without descending into nested function
// literals: defers and recovers inside those belong to a different
// frame.
func inspectOwnFrame(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

// SortDiagnostics orders findings by file position, for stable output
// across passes (sibling analyzers use it too).
func SortDiagnostics(out []Diagnostic) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
}
