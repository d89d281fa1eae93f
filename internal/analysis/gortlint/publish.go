package gortlint

import (
	"fmt"
	"go/ast"
	"go/types"

	"repro/internal/analysis/golint"
)

// PublishConfig declares the publication rule for one package: a slot
// popped from a private reservation (a TLAB, an allocation pool, a free
// shard) is DEAD — header clear, fields stale — until an install
// function writes its live header. The paper's §4 no-fence argument is
// exactly that the initializing stores drain before any later store
// publishes the reference; at source level the corresponding discipline
// is that a reserved slot must flow through install before it can reach
// a publication point (a raw field store, the collector transfer, a
// return to the caller).
type PublishConfig struct {
	// Package is the import path (or unique suffix) of the target.
	Package string
	// ReservationFields are "Struct.field" keys of private reservation
	// slices; popping an element (index or range) yields an uninstalled
	// slot.
	ReservationFields []string
	// InstallFns are funcKeys whose call makes its slot argument live.
	InstallFns []string
	// PublishFns are funcKeys whose arguments escape into the shared
	// heap; an uninstalled slot must never reach one.
	PublishFns []string
	// Exempt lists funcKeys skipped entirely: the reservation machinery
	// itself, which legitimately shuttles uninstalled slots between
	// free lists and reservations.
	Exempt []string
}

// CheckPublish runs the publication-discipline pass over the target
// package.
func CheckPublish(mod *golint.Module, cfg PublishConfig) ([]golint.Diagnostic, error) {
	pkg, err := mod.Package(cfg.Package)
	if err != nil {
		return nil, err
	}
	resVars, err := resolveFieldKeys(pkg, cfg.ReservationFields)
	if err != nil {
		return nil, err
	}
	pw := &pubWalker{
		mod:     mod,
		resVars: resVars,
		install: toSet(cfg.InstallFns),
		publish: toSet(cfg.PublishFns),
	}
	exempt := toSet(cfg.Exempt)
	for _, f := range mod.Functions() {
		if f.Pkg != pkg || exempt[golint.FuncKey(f.Fn)] {
			continue
		}
		pw.f = f
		pw.walkStmts(f.Decl.Body.List, make(taint))
	}
	golint.SortDiagnostics(pw.diags)
	return pw.diags, nil
}

// taint is the set of local variables currently holding an uninstalled
// reserved slot.
type taint map[*types.Var]bool

func (t taint) clone() taint {
	out := make(taint, len(t))
	for v := range t {
		out[v] = true
	}
	return out
}

func (t taint) union(o taint) {
	for v := range o {
		t[v] = true
	}
}

type pubWalker struct {
	mod     *golint.Module
	f       *golint.Function
	resVars map[*types.Var]string
	install map[string]bool
	publish map[string]bool
	diags   []golint.Diagnostic
}

func (w *pubWalker) report(pos ast.Node, format string, args ...any) {
	w.diags = append(w.diags, golint.Diagnostic{
		Pos:     w.mod.Fset().Position(pos.Pos()),
		Func:    w.f.Fn.FullName(),
		Message: fmt.Sprintf(format, args...),
	})
}

func (w *pubWalker) walkStmts(stmts []ast.Stmt, t taint) {
	for _, s := range stmts {
		w.walkStmt(s, t)
	}
}

func (w *pubWalker) walkStmt(s ast.Stmt, t taint) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		for _, rh := range s.Rhs {
			w.checkExpr(rh, t)
		}
		// 1:1 assignments track taint per position; multi-value RHS
		// (function calls) never produce raw slots, so all LHS clear.
		for i, lh := range s.Lhs {
			raw := false
			if len(s.Rhs) == len(s.Lhs) {
				raw = w.exprRaw(s.Rhs[i], t)
			}
			switch lh := lh.(type) {
			case *ast.Ident:
				if v := w.localVar(lh); v != nil {
					if raw {
						t[v] = true
					} else {
						delete(t, v)
					}
				}
			case *ast.SelectorExpr:
				fv, _ := w.f.Pkg.Info.Uses[lh.Sel].(*types.Var)
				if fv == nil {
					break
				}
				if _, isRes := w.resVars[fv]; isRes {
					break // refilling a reservation is the point
				}
				if raw {
					w.report(s, "uninstalled reserved slot flows into shared field %s before install: readers would see a dead header and stale fields", lh.Sel.Name)
				}
			case *ast.IndexExpr:
				if raw {
					w.report(s, "uninstalled reserved slot stored into an element before install")
				}
			}
		}
	case *ast.ExprStmt:
		w.checkExpr(s.X, t)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.checkExpr(r, t)
			if w.exprRaw(r, t) {
				w.report(r, "uninstalled reserved slot returned to the caller before install")
			}
		}
	case *ast.IfStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, t)
		}
		w.checkExpr(s.Cond, t)
		tb := t.clone()
		w.walkStmts(s.Body.List, tb)
		if s.Else != nil {
			te := t.clone()
			w.walkStmt(s.Else, te)
			t.union(te)
		}
		t.union(tb)
	case *ast.BlockStmt:
		w.walkStmts(s.List, t)
	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, t)
		}
		if s.Cond != nil {
			w.checkExpr(s.Cond, t)
		}
		tb := t.clone()
		w.walkStmts(s.Body.List, tb)
		if s.Post != nil {
			w.walkStmt(s.Post, tb)
		}
		t.union(tb)
	case *ast.RangeStmt:
		w.checkExpr(s.X, t)
		tb := t.clone()
		// Ranging over a reservation field yields uninstalled slots in
		// the value variable.
		if sel, ok := ast.Unparen(s.X).(*ast.SelectorExpr); ok {
			if fv, ok := w.f.Pkg.Info.Uses[sel.Sel].(*types.Var); ok {
				if _, isRes := w.resVars[fv]; isRes && s.Value != nil {
					if id, ok := s.Value.(*ast.Ident); ok {
						if v := w.localVar(id); v != nil {
							tb[v] = true
						}
					}
				}
			}
		}
		w.walkStmts(s.Body.List, tb)
		t.union(tb)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, t)
		}
		if s.Tag != nil {
			w.checkExpr(s.Tag, t)
		}
		for _, c := range s.Body.List {
			tc := t.clone()
			w.walkStmts(c.(*ast.CaseClause).Body, tc)
			t.union(tc)
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			tc := t.clone()
			w.walkStmts(c.(*ast.CaseClause).Body, tc)
			t.union(tc)
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			tc := t.clone()
			w.walkStmts(c.(*ast.CommClause).Body, tc)
			t.union(tc)
		}
	case *ast.GoStmt:
		w.checkExpr(s.Call, t)
	case *ast.DeferStmt:
		w.checkExpr(s.Call, t)
	case *ast.SendStmt:
		w.checkExpr(s.Value, t)
		if w.exprRaw(s.Value, t) {
			w.report(s, "uninstalled reserved slot sent on a channel before install")
		}
	case *ast.IncDecStmt:
		w.checkExpr(s.X, t)
	case *ast.LabeledStmt:
		w.walkStmt(s.Stmt, t)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, val := range vs.Values {
						w.checkExpr(val, t)
					}
				}
			}
		}
	}
}

// checkExpr scans an expression for publish/install calls: a publish
// call with a raw argument is a finding; an install call clears its
// identifier arguments.
func (w *pubWalker) checkExpr(e ast.Expr, t taint) {
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeOf(w.f, call)
		if fn == nil {
			return true
		}
		key := golint.FuncKey(fn)
		switch {
		case w.publish[key]:
			for _, arg := range call.Args {
				if w.exprRaw(arg, t) {
					w.report(arg, "uninstalled reserved slot reaches publication point %s before install: the header store must come first (§4 no-fence argument)", key)
				}
			}
		case w.install[key]:
			for _, arg := range call.Args {
				if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
					if v := w.localVar(id); v != nil {
						delete(t, v)
					}
				}
			}
		}
		return true
	})
}

// exprRaw reports whether the expression may hold an uninstalled slot: a
// tainted local, or a direct element read of a reservation field.
func (w *pubWalker) exprRaw(e ast.Expr, t taint) bool {
	raw := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if v := w.localVar(n); v != nil && t[v] {
				raw = true
			}
		case *ast.IndexExpr:
			if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok {
				if fv, ok := w.f.Pkg.Info.Uses[sel.Sel].(*types.Var); ok {
					if _, isRes := w.resVars[fv]; isRes {
						raw = true
					}
				}
			}
		}
		return true
	})
	return raw
}

// localVar resolves an identifier to its *types.Var (use or def).
func (w *pubWalker) localVar(id *ast.Ident) *types.Var {
	if v, ok := w.f.Pkg.Info.Defs[id].(*types.Var); ok {
		return v
	}
	v, _ := w.f.Pkg.Info.Uses[id].(*types.Var)
	return v
}

// resolveFieldKeys resolves "Struct.field" keys against a package's
// scope into field objects, so accesses match on identity.
func resolveFieldKeys(pkg *golint.Package, keys []string) (map[*types.Var]string, error) {
	out := make(map[*types.Var]string, len(keys))
	scope := pkg.Types.Scope()
	for _, key := range keys {
		structName, fieldName, ok := splitKey(key)
		if !ok {
			return nil, fmt.Errorf("gortlint: field key %q is not Struct.field", key)
		}
		obj := scope.Lookup(structName)
		if obj == nil {
			return nil, fmt.Errorf("gortlint: struct %s not found in %s", structName, pkg.Path)
		}
		st, ok := obj.Type().Underlying().(*types.Struct)
		if !ok {
			return nil, fmt.Errorf("gortlint: %s is not a struct", structName)
		}
		found := false
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i).Name() == fieldName {
				out[st.Field(i)] = key
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("gortlint: field %s not found (struct drifted?)", key)
		}
	}
	return out, nil
}
