package gortlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis/golint"
)

// BarrierConfig declares the barrier-coverage rule for one package: the
// Go-source mirror of the model analyzer's deletion/insertion-barrier
// placement rules (internal/analysis/rules.go).
//
// The verified Store (paper Figure 6) runs the deletion barrier on the
// overwritten value and the insertion barrier on the stored value
// BEFORE the raw field write commits. At source level that means:
// every call to a raw store function must either live in an audited
// mutator entry point — where the required number of barrier calls must
// lexically precede it, each unconditional or guarded only by the
// negation of a declared ablation flag — or be explicitly allowed
// (collector/allocator internals that run when no mutator can observe
// the slot).
type BarrierConfig struct {
	// Package is the import path (or unique suffix) of the target.
	Package string
	// StoreFns are the raw reference-field store functions (funcKeys).
	StoreFns []string
	// BarrierFn is the write-barrier method name key (e.g.
	// "Mutator.barrierHit").
	BarrierFn string
	// Audited maps funcKeys to the number of barrier calls that must
	// precede each raw store in them (2 = deletion + insertion).
	Audited map[string]int
	// AblationFlags are option field names whose negation may guard a
	// counted barrier call (`if !opt.NoDeletionBarrier { barrierHit }`).
	AblationFlags []string
	// Allowed lists funcKeys that may call StoreFns without barriers
	// (publication-safe allocator/collector internals).
	Allowed []string
	// RawFields are "Struct.field" keys of raw reference-element slices;
	// a mutating element method (.Store/.CompareAndSwap/.Add/.Swap) on
	// them is a raw write, allowed only in AllowedRaw.
	RawFields []string
	// AllowedRaw lists funcKeys that may write RawFields elements.
	AllowedRaw []string
}

// CheckBarriers runs the barrier-coverage pass over the target package.
func CheckBarriers(mod *golint.Module, cfg BarrierConfig) ([]golint.Diagnostic, error) {
	pkg, err := mod.Package(cfg.Package)
	if err != nil {
		return nil, err
	}
	storeFns := toSet(cfg.StoreFns)
	audited := cfg.Audited
	allowed := toSet(cfg.Allowed)
	allowedRaw := toSet(cfg.AllowedRaw)
	ablation := toSet(cfg.AblationFlags)

	// Resolve raw field objects so element writes match on identity.
	rawVars, err := resolveFieldKeys(pkg, cfg.RawFields)
	if err != nil {
		return nil, err
	}

	var diags []golint.Diagnostic
	for _, f := range mod.Functions() {
		if f.Pkg != pkg {
			continue
		}
		key := golint.FuncKey(f.Fn)

		// Raw element writes: x.fields[i].Store(...) and friends.
		if !allowedRaw[key] {
			ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || !isElementWriteName(sel.Sel.Name) {
					return true
				}
				idx, ok := sel.X.(*ast.IndexExpr)
				if !ok {
					return true
				}
				base, ok := idx.X.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				v, ok := f.Pkg.Info.Uses[base.Sel].(*types.Var)
				if _, isRaw := rawVars[v]; ok && isRaw {
					diags = append(diags, golint.Diagnostic{
						Pos:  mod.Fset().Position(call.Pos()),
						Func: f.Fn.FullName(),
						Message: fmt.Sprintf(
							"raw element write to %s outside the store/install functions bypasses the barrier discipline",
							base.Sel.Name),
					})
				}
				return true
			})
		}

		// Calls to the raw store functions.
		var storePos []token.Pos
		ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn := calleeOf(f, call); fn != nil && storeFns[golint.FuncKey(fn)] {
				storePos = append(storePos, call.Pos())
			}
			return true
		})
		if len(storePos) == 0 {
			continue
		}
		if allowed[key] {
			continue
		}
		need, isAudited := audited[key]
		if !isAudited {
			for _, pos := range storePos {
				diags = append(diags, golint.Diagnostic{
					Pos:  mod.Fset().Position(pos),
					Func: f.Fn.FullName(),
					Message: fmt.Sprintf(
						"raw store call in %s, which is neither barrier-audited nor an allowed collector path", key),
				})
			}
			continue
		}
		// Audited: count qualifying barrier calls lexically before each
		// raw store. A call qualifies when every enclosing conditional is
		// the negation of a declared ablation flag — any other guard
		// means the barrier might not run on the path that stores.
		hits := barrierHits(f, cfg.BarrierFn, ablation)
		for _, pos := range storePos {
			n := 0
			for _, h := range hits {
				if h < pos {
					n++
				}
			}
			if n < need {
				diags = append(diags, golint.Diagnostic{
					Pos:  mod.Fset().Position(pos),
					Func: f.Fn.FullName(),
					Message: fmt.Sprintf(
						"raw store is preceded by %d of %d required write-barrier calls: a missing barrier loses objects under concurrent marking",
						n, need),
				})
			}
		}
	}
	golint.SortDiagnostics(diags)
	return diags, nil
}

// barrierHits collects the positions of qualifying barrier calls in f:
// reachable unconditionally or under ablation-negation guards only.
func barrierHits(f *golint.Function, barrierFn string, ablation map[string]bool) []token.Pos {
	var hits []token.Pos
	var walk func(stmts []ast.Stmt, countable bool)
	collect := func(s ast.Stmt, countable bool) {
		es, ok := s.(*ast.ExprStmt)
		if !ok {
			return
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			return
		}
		if fn := calleeOf(f, call); fn != nil && golint.FuncKey(fn) == barrierFn && countable {
			hits = append(hits, call.Pos())
		}
	}
	walk = func(stmts []ast.Stmt, countable bool) {
		for _, s := range stmts {
			switch s := s.(type) {
			case *ast.ExprStmt:
				collect(s, countable)
			case *ast.IfStmt:
				walk(s.Body.List, countable && isAblationNot(f, s.Cond, ablation))
				if s.Else != nil {
					if blk, ok := s.Else.(*ast.BlockStmt); ok {
						walk(blk.List, false)
					} else {
						walk([]ast.Stmt{s.Else}, false)
					}
				}
			case *ast.BlockStmt:
				walk(s.List, countable)
			case *ast.ForStmt:
				walk(s.Body.List, false)
			case *ast.RangeStmt:
				walk(s.Body.List, false)
			case *ast.SwitchStmt:
				for _, c := range s.Body.List {
					walk(c.(*ast.CaseClause).Body, false)
				}
			}
		}
	}
	walk(f.Decl.Body.List, true)
	return hits
}

// isAblationNot matches `!x.Flag` where Flag is a declared ablation
// flag name.
func isAblationNot(f *golint.Function, cond ast.Expr, ablation map[string]bool) bool {
	un, ok := ast.Unparen(cond).(*ast.UnaryExpr)
	if !ok || un.Op != token.NOT {
		return false
	}
	sel, ok := ast.Unparen(un.X).(*ast.SelectorExpr)
	return ok && ablation[sel.Sel.Name]
}

// isElementWriteName matches the sync/atomic mutating method names.
func isElementWriteName(name string) bool {
	switch name {
	case "Store", "CompareAndSwap", "Add", "Swap", "Or", "And":
		return true
	}
	return false
}

// calleeOf resolves a call's target *types.Func, or nil.
func calleeOf(f *golint.Function, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := f.Pkg.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := f.Pkg.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// toSet builds a membership set.
func toSet(list []string) map[string]bool {
	out := make(map[string]bool, len(list))
	for _, s := range list {
		out[s] = true
	}
	return out
}

// splitKey splits "Struct.field".
func splitKey(key string) (string, string, bool) {
	for i := 0; i < len(key); i++ {
		if key[i] == '.' {
			return key[:i], key[i+1:], i > 0 && i < len(key)-1
		}
	}
	return "", "", false
}
