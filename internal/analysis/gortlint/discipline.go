package gortlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis/golint"
)

// CheckDiscipline runs the field-access discipline pass: it reads the
// `gcrt:guard` annotations of cfg.Structs in the declaring package, and
// then walks every function body in the loaded module checking each
// access to a classified field against its class. See the package
// comment for the class semantics and the soundness caveats.
func CheckDiscipline(mod *golint.Module, cfg DisciplineConfig) ([]golint.Diagnostic, error) {
	pkg, err := mod.Package(cfg.Package)
	if err != nil {
		return nil, err
	}
	r, diags, err := resolve(mod, pkg, cfg)
	if err != nil {
		return nil, err
	}

	// Spawn-reachability: functions reachable from the target package's
	// own `go` statements run off the spawning goroutine — an owner-
	// confined access there is cross-thread by construction.
	spawnReach := mod.Reachable(mod.SpawnRoots(pkg))
	init := toSet(cfg.Init)

	for _, f := range mod.Functions() {
		key := golint.FuncKey(f.Fn)
		samePkg := f.Pkg == pkg
		if samePkg && init[key] {
			continue // trusted constructor
		}
		w := &walker{
			mod:     mod,
			r:       r,
			fn:      f,
			fnKey:   key,
			spawned: spawnReach[f.Fn],
			exempt:  make(map[string]bool),
		}
		ls := newLockset()
		if samePkg {
			for _, fieldKey := range cfg.Exempt[key] {
				w.exempt[fieldKey] = true
			}
			for _, mv := range r.holds[key] {
				ls.add(mv)
			}
		}
		w.walkStmts(f.Decl.Body.List, ls)
		diags = append(diags, w.diags...)
	}
	golint.SortDiagnostics(diags)
	return diags, nil
}

// accessMode classifies how an expression touches a field.
type accessMode int

const (
	modeRead accessMode = iota
	modeWrite
	modeRecv // receiver of a method call
	modeAddr // operand of unary &
)

func (m accessMode) String() string {
	switch m {
	case modeRead:
		return "plain read"
	case modeWrite:
		return "write"
	case modeRecv:
		return "method call"
	case modeAddr:
		return "address-of"
	}
	return "access"
}

// lockset is the may-held set of mutex field objects.
type lockset map[*types.Var]bool

func newLockset() lockset { return make(lockset) }

func (ls lockset) add(v *types.Var)    { ls[v] = true }
func (ls lockset) remove(v *types.Var) { delete(ls, v) }
func (ls lockset) clone() lockset {
	out := make(lockset, len(ls))
	for k := range ls {
		out[k] = true
	}
	return out
}

// union merges another lockset in place (may-held: held on any path
// counts).
func (ls lockset) union(other lockset) {
	for k := range other {
		ls[k] = true
	}
}

// walker checks one function body.
type walker struct {
	mod   *golint.Module
	r     *resolved
	fn    *golint.Function
	fnKey string
	// spawned: this function is reachable from the target package's own
	// go statements.
	spawned bool
	// inSpawn: the walk is lexically inside a `go func(){...}` literal.
	inSpawn bool
	// exempt: "Struct.field" keys this function may access despite owner
	// confinement.
	exempt map[string]bool

	diags []golint.Diagnostic
}

func (w *walker) report(pos token.Pos, format string, args ...any) {
	w.diags = append(w.diags, golint.Diagnostic{
		Pos:     w.mod.Fset().Position(pos),
		Func:    w.fn.Fn.FullName(),
		Message: fmt.Sprintf(format, args...),
	})
}

// fieldVarOf resolves a selector to a classified field object, or nil.
func (w *walker) fieldVarOf(sel *ast.SelectorExpr) *types.Var {
	if v, ok := w.fn.Pkg.Info.Uses[sel.Sel].(*types.Var); ok {
		if _, classified := w.r.fields[v]; classified {
			return v
		}
	}
	// Embedded/qualified selections resolve through Selections.
	if s, ok := w.fn.Pkg.Info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		if v, ok := s.Obj().(*types.Var); ok {
			if _, classified := w.r.fields[v]; classified {
				return v
			}
		}
	}
	return nil
}

// isMethodOf reports whether the walked function is a method on the
// given struct (pointer receivers included).
func (w *walker) isMethodOf(structName string) bool {
	sig, ok := w.fn.Fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == structName
}

// checkAccess applies the field's class rule to one access.
func (w *walker) checkAccess(fv *types.Var, sel *ast.SelectorExpr, mode accessMode, ls lockset) {
	fr := w.r.fields[fv]
	switch fr.rule.class {
	case classAtomic:
		if mode != modeRecv {
			w.report(sel.Sel.Pos(),
				"%s of atomic field %s bypasses the memory-order contract: use its methods",
				mode, fr)
		}
	case classGuarded:
		if !ls[fr.rule.guard] {
			w.report(sel.Sel.Pos(),
				"%s of lock-guarded field %s outside its critical section: %s.Lock() is not held on this path",
				mode, fr, fr.rule.guardKey)
		}
	case classOwner:
		switch {
		case w.inSpawn:
			w.report(sel.Sel.Pos(),
				"owner-confined field %s (%s) accessed inside a spawned goroutine literal",
				fr, fr.rule.domain)
		case w.spawned:
			w.report(sel.Sel.Pos(),
				"owner-confined field %s (%s) accessed in a function reachable from a `go` statement: it runs off the owner's thread",
				fr, fr.rule.domain)
		case !w.isMethodOf(fr.structName) && !w.exempt[fr.String()]:
			w.report(sel.Sel.Pos(),
				"owner-confined field %s (%s) accessed outside %s's methods without an exemption",
				fr, fr.rule.domain, fr.structName)
		}
	case classImmutable:
		if mode != modeWrite {
			return
		}
		// Past the package's Init functions (never walked), a write is
		// legal only in the field's own immutable(...) list.
		for _, k := range fr.rule.init {
			if k == w.fnKey && w.fn.Pkg == w.r.pkg {
				return
			}
		}
		w.report(sel.Sel.Pos(),
			"write to immutable-after-init field %s outside its construction functions", fr)
	}
}

// mutexOpOf recognizes x.mu.Lock()/Unlock()/RLock()/RUnlock() where
// x.mu resolves to a classified mutex field; returns the field object
// and whether the op acquires.
func (w *walker) mutexOpOf(call *ast.CallExpr) (*types.Var, bool, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, false, false
	}
	var acquire bool
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
		acquire = false
	default:
		return nil, false, false
	}
	inner, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return nil, false, false
	}
	v, ok := w.fn.Pkg.Info.Uses[inner.Sel].(*types.Var)
	if !ok || !isMutexType(v.Type()) {
		return nil, false, false
	}
	for _, mv := range w.r.mutexes {
		if mv == v {
			return v, acquire, true
		}
	}
	return nil, false, false
}

// walkStmts walks a statement list in order, threading the may-held
// lockset through it, and returns the lockset at the end.
func (w *walker) walkStmts(list []ast.Stmt, ls lockset) lockset {
	for _, s := range list {
		ls = w.walkStmt(s, ls)
	}
	return ls
}

func (w *walker) walkStmt(s ast.Stmt, ls lockset) lockset {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if mv, acquire, ok := w.mutexOpOf(call); ok {
				// The receiver chain is still an access (method-recv on
				// the mutex field itself).
				w.walkExpr(call.Fun.(*ast.SelectorExpr).X, modeRecv, ls)
				if acquire {
					ls.add(mv)
				} else {
					ls.remove(mv)
				}
				return ls
			}
		}
		w.walkExpr(s.X, modeRead, ls)
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			w.walkExpr(rhs, modeRead, ls)
		}
		for _, lhs := range s.Lhs {
			if sel, ok := lhs.(*ast.SelectorExpr); ok {
				if fv := w.fieldVarOf(sel); fv != nil {
					w.checkAccess(fv, sel, modeWrite, ls)
					w.walkExpr(sel.X, modeRead, ls)
					continue
				}
			}
			w.walkExpr(lhs, modeRead, ls)
		}
	case *ast.IncDecStmt:
		if sel, ok := s.X.(*ast.SelectorExpr); ok {
			if fv := w.fieldVarOf(sel); fv != nil {
				w.checkAccess(fv, sel, modeWrite, ls)
				w.walkExpr(sel.X, modeRead, ls)
				return ls
			}
		}
		w.walkExpr(s.X, modeRead, ls)
	case *ast.IfStmt:
		if s.Init != nil {
			ls = w.walkStmt(s.Init, ls)
		}
		w.walkExpr(s.Cond, modeRead, ls)
		thenLS := w.walkStmts(s.Body.List, ls.clone())
		elseLS := ls.clone()
		if s.Else != nil {
			elseLS = w.walkStmt(s.Else, elseLS)
		}
		// May-held merge: union of the branch exits.
		thenLS.union(elseLS)
		return thenLS
	case *ast.BlockStmt:
		return w.walkStmts(s.List, ls)
	case *ast.ForStmt:
		if s.Init != nil {
			ls = w.walkStmt(s.Init, ls)
		}
		if s.Cond != nil {
			w.walkExpr(s.Cond, modeRead, ls)
		}
		bodyLS := w.walkStmts(s.Body.List, ls.clone())
		if s.Post != nil {
			bodyLS = w.walkStmt(s.Post, bodyLS)
		}
		// Single-pass loop walk: the body may not execute, so merge.
		ls.union(bodyLS)
		return ls
	case *ast.RangeStmt:
		w.walkExpr(s.X, modeRead, ls)
		if s.Key != nil {
			w.walkExpr(s.Key, modeRead, ls)
		}
		if s.Value != nil {
			w.walkExpr(s.Value, modeRead, ls)
		}
		bodyLS := w.walkStmts(s.Body.List, ls.clone())
		ls.union(bodyLS)
		return ls
	case *ast.SwitchStmt:
		if s.Init != nil {
			ls = w.walkStmt(s.Init, ls)
		}
		if s.Tag != nil {
			w.walkExpr(s.Tag, modeRead, ls)
		}
		merged := ls.clone()
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				w.walkExpr(e, modeRead, ls)
			}
			merged.union(w.walkStmts(cc.Body, ls.clone()))
		}
		return merged
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			ls = w.walkStmt(s.Init, ls)
		}
		w.walkStmt(s.Assign, ls)
		merged := ls.clone()
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			merged.union(w.walkStmts(cc.Body, ls.clone()))
		}
		return merged
	case *ast.SelectStmt:
		merged := ls.clone()
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			branch := ls.clone()
			if cc.Comm != nil {
				branch = w.walkStmt(cc.Comm, branch)
			}
			merged.union(w.walkStmts(cc.Body, branch))
		}
		return merged
	case *ast.DeferStmt:
		// A deferred Unlock runs at return: the lock is held to the end
		// of the function, so it does NOT leave the lockset here.
		if _, acquire, ok := w.mutexOpOf(s.Call); ok && !acquire {
			w.walkExpr(s.Call.Fun.(*ast.SelectorExpr).X, modeRecv, ls)
			return ls
		}
		w.walkExpr(s.Call, modeRead, ls)
	case *ast.GoStmt:
		// The spawned literal runs on another goroutine: fresh lockset,
		// owner accesses inside it are cross-thread.
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			saved := w.inSpawn
			w.inSpawn = true
			w.walkStmts(lit.Body.List, newLockset())
			w.inSpawn = saved
			for _, a := range s.Call.Args {
				w.walkExpr(a, modeRead, ls)
			}
		} else {
			w.walkExpr(s.Call, modeRead, ls)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.walkExpr(e, modeRead, ls)
		}
	case *ast.SendStmt:
		w.walkExpr(s.Chan, modeRead, ls)
		w.walkExpr(s.Value, modeRead, ls)
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, ls)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.walkExpr(v, modeRead, ls)
					}
				}
			}
		}
	}
	return ls
}

// walkExpr checks field accesses inside an expression. mode applies to
// the outermost selector; everything beneath is a read.
func (w *walker) walkExpr(e ast.Expr, mode accessMode, ls lockset) {
	switch e := e.(type) {
	case *ast.SelectorExpr:
		if fv := w.fieldVarOf(e); fv != nil {
			w.checkAccess(fv, e, mode, ls)
		}
		w.walkExpr(e.X, modeRead, ls)
	case *ast.CallExpr:
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
			if _, isFunc := w.fn.Pkg.Info.Uses[sel.Sel].(*types.Func); isFunc {
				// Method call: the receiver chain's innermost field
				// selector is a method-receiver access.
				w.walkExpr(sel.X, modeRecv, ls)
			} else {
				w.walkExpr(e.Fun, modeRead, ls)
			}
		} else {
			w.walkExpr(e.Fun, modeRead, ls)
		}
		for _, a := range e.Args {
			w.walkExpr(a, modeRead, ls)
		}
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			if sel, ok := e.X.(*ast.SelectorExpr); ok {
				if fv := w.fieldVarOf(sel); fv != nil {
					w.checkAccess(fv, sel, modeAddr, ls)
					w.walkExpr(sel.X, modeRead, ls)
					return
				}
			}
		}
		w.walkExpr(e.X, modeRead, ls)
	case *ast.IndexExpr:
		w.walkExpr(e.X, mode, ls)
		w.walkExpr(e.Index, modeRead, ls)
	case *ast.SliceExpr:
		w.walkExpr(e.X, modeRead, ls)
		for _, idx := range []ast.Expr{e.Low, e.High, e.Max} {
			if idx != nil {
				w.walkExpr(idx, modeRead, ls)
			}
		}
	case *ast.BinaryExpr:
		w.walkExpr(e.X, modeRead, ls)
		w.walkExpr(e.Y, modeRead, ls)
	case *ast.ParenExpr:
		w.walkExpr(e.X, mode, ls)
	case *ast.StarExpr:
		w.walkExpr(e.X, mode, ls)
	case *ast.TypeAssertExpr:
		w.walkExpr(e.X, modeRead, ls)
	case *ast.CompositeLit:
		// Composite literals are construction, not mutation of shared
		// state; their element expressions are still reads.
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				w.walkExpr(kv.Value, modeRead, ls)
				continue
			}
			w.walkExpr(el, modeRead, ls)
		}
	case *ast.FuncLit:
		// A non-spawned literal may run later on the same goroutine (or
		// escape); walked with an empty lockset — it must take its own
		// locks.
		w.walkStmts(e.Body.List, newLockset())
	case *ast.KeyValueExpr:
		w.walkExpr(e.Value, modeRead, ls)
	}
}
