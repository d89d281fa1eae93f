// Package gortlint is the concurrency-discipline analyzer for the
// concrete runtime (internal/gcrt) and the verification service
// (internal/server): the Go-source mirror of the model-level placement
// rules in internal/analysis.
//
// The model checker proves the protocol over the abstract machine;
// -race soaks and the online oracle check the runtime dynamically — but
// a dynamic check misses a discipline violation whenever the scheduler
// happens not to interleave it. Following the pointer-race-freedom line
// of work (Haziza et al.; Meyer–Wolff), the runtime's shared state
// becomes statically checkable once every shared location carries an
// explicit access discipline. Each field declares its own, in a
// `// gcrt:guard <spec>` annotation on its declaration, and the pass
// checks every reachable access against it:
//
//   - atomic: the field is a sync/atomic mirror (or a mutex); it may
//     only be touched as a method receiver (.Load/.Store/.Add/.Lock...).
//     A plain read or write of such a field bypasses the memory-order
//     contract the kernel's TSO argument depends on.
//   - by(mu): the field is guarded by a mutex ("mu" in the same struct,
//     or "Struct.mu" in another listed struct); every access must be
//     dominated by mu.Lock() on the path (a may-held lockset dataflow,
//     so a conditionally taken lock counts — only definitely-unlocked
//     accesses are flagged).
//   - owner(domain): the field is confined to one goroutine's role
//     (mutator or collector); it may only be touched by methods of the
//     declaring struct, by explicitly exempted functions (the parked-
//     mutator protocol), and never from code reachable from the target
//     package's own `go` statements or lexically inside a spawned
//     function literal.
//   - immutable, immutable(Fn, …): the field is written only during
//     construction (the package's Init functions, plus the listed ones
//     for a field frozen at a later publication point) and is read-only
//     afterwards. Element writes through a slice field are allowed —
//     immutability here is of the reference, matching how the arena's
//     atomic element slices work.
//
// What cannot be said at a field stays in a per-package
// DisciplineConfig: the structs in scope, and the function-level
// construction, exemption and caller-holds tables.
//
// The passes are built on the golint loader/call-graph framework
// (stdlib go/parser + go/types only, no x/tools) and validated the
// established way: testdata fixture packages with seeded defects and
// `// want` comments that must be flagged exactly, plus zero-findings
// gates over the real trees, run by the package tests.
//
// Soundness caveats (vs -race): the lockset conflates lock instances
// (sh1.mu counts for sh2.free — field identity, not object identity),
// loops are walked once, Init functions are trusted wholesale, and
// composite literals are construction, not mutation. The discipline is
// a lint: it over-approximates held locks and trusts the annotations,
// so a clean report is a conformance argument, not a proof. What it
// does catch — and -race structurally cannot — is a discipline break on
// a path the scheduler never happened to interleave.
package gortlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis/golint"
)

// class is a field's access-discipline class.
type class int

const (
	classAtomic class = iota
	classGuarded
	classOwner
	classImmutable
)

// fieldRule is one field's parsed `gcrt:guard` annotation.
type fieldRule struct {
	class class
	// guard is the protecting mutex field of a by(G) field, and guardKey
	// its "Struct.field" name.
	guard    *types.Var
	guardKey string
	// domain names the owning role of an owner(D) field ("mutator",
	// "collector").
	domain string
	// init lists the functions, beyond the package's Init list, that may
	// write an immutable(F, …) field: identity fields frozen at a
	// publication point such as Engine.Submit.
	init []string
}

// DisciplineConfig is the part of one package's access discipline that
// cannot be declared at a field.
type DisciplineConfig struct {
	// Package is the import path (or unique suffix) of the package
	// declaring the structs. Every name below resolves in this package.
	Package string
	// Structs names the shared structs. Every non-blank field of each
	// must carry a `gcrt:guard` annotation, so a struct whose annotations
	// are all deleted is still flagged field by field.
	Structs []string
	// Init lists constructor functions (by funcKey, "Recv.Name" or
	// "Name") exempt from every access check: they build the object
	// before it is shared.
	Init []string
	// Exempt grants a function access to specific owner-confined fields
	// it does not own: the gcrt oracle, for one, samples a mutator's
	// roots at that mutator's safe point.
	Exempt map[string][]string // funcKey -> ["Struct.field", ...]
	// Holds declares locks held on entry by caller-holds convention
	// (the *Locked suffix functions, heap.Interface methods invoked
	// under the container lock).
	Holds map[string][]string // funcKey -> ["Struct.mu", ...]
}

// fieldRef identifies one classified field.
type fieldRef struct {
	structName string
	fieldName  string
	rule       fieldRule
}

func (fr fieldRef) String() string { return fr.structName + "." + fr.fieldName }

// resolved is a package's discipline read from its declarations.
type resolved struct {
	pkg *golint.Package
	// fields maps the type-checker's field objects to their rules.
	fields map[*types.Var]fieldRef
	// mutexes maps "Struct.field" keys to every mutex field of a listed
	// struct, so the lockset can be keyed on object identity.
	mutexes map[string]*types.Var
	// holds is cfg.Holds with its guards resolved.
	holds map[string][]*types.Var
}

// resolve reads cfg.Package's discipline from its `gcrt:guard`
// annotations. A name in cfg that resolves to nothing is an error (dead
// or misspelt configuration must not pass silently); a missing or
// malformed annotation is a finding at the field.
func resolve(mod *golint.Module, pkg *golint.Package, cfg DisciplineConfig) (*resolved, []golint.Diagnostic, error) {
	r := &resolved{
		pkg:     pkg,
		fields:  make(map[*types.Var]fieldRef),
		mutexes: make(map[string]*types.Var),
		holds:   make(map[string][]*types.Var, len(cfg.Holds)),
	}
	listed := make(map[string]*types.Struct, len(cfg.Structs))
	fieldKeys := make(map[string]bool)
	for _, name := range cfg.Structs {
		var st *types.Struct
		if obj := pkg.Types.Scope().Lookup(name); obj != nil {
			st, _ = obj.Type().Underlying().(*types.Struct)
		}
		if st == nil {
			return nil, nil, fmt.Errorf("gortlint: Structs entry %s is not a struct declared in %s", name, pkg.Path)
		}
		listed[name] = st
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			key := name + "." + f.Name()
			fieldKeys[key] = true
			if isMutexType(f.Type()) {
				r.mutexes[key] = f
			}
		}
	}

	funcs := make(map[string]bool)
	for _, f := range mod.Functions() {
		if f.Pkg == pkg {
			funcs[golint.FuncKey(f.Fn)] = true
		}
	}
	for _, fn := range cfg.Init {
		if !funcs[fn] {
			return nil, nil, fmt.Errorf("gortlint: Init entry %s is not a function of %s", fn, pkg.Path)
		}
	}
	for _, fn := range sortedKeys(cfg.Exempt) {
		if !funcs[fn] {
			return nil, nil, fmt.Errorf("gortlint: Exempt entry %s is not a function of %s", fn, pkg.Path)
		}
		for _, key := range cfg.Exempt[fn] {
			if !fieldKeys[key] {
				return nil, nil, fmt.Errorf("gortlint: Exempt[%s] entry %s is not a field of a listed struct", fn, key)
			}
		}
	}
	for _, fn := range sortedKeys(cfg.Holds) {
		if !funcs[fn] {
			return nil, nil, fmt.Errorf("gortlint: Holds entry %s is not a function of %s", fn, pkg.Path)
		}
		for _, key := range cfg.Holds[fn] {
			mv := r.mutexes[key]
			if mv == nil {
				return nil, nil, fmt.Errorf("gortlint: Holds[%s] entry %s is not a mutex field of a listed struct", fn, key)
			}
			r.holds[fn] = append(r.holds[fn], mv)
		}
	}

	var diags []golint.Diagnostic
	report := func(pos token.Pos, structName, format string, args ...any) {
		diags = append(diags, golint.Diagnostic{
			Pos:     mod.Fset().Position(pos),
			Func:    structName,
			Message: fmt.Sprintf(format, args...),
		})
	}

	// The annotations, keyed by field object. One on a struct that is not
	// listed would be checked by nothing, so it is a finding too.
	specs := make(map[*types.Var]string)
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			_, isListed := listed[ts.Name.Name]
			for _, fld := range st.Fields.List {
				spec, annotated := annotationOf(fld)
				for _, name := range fld.Names {
					switch {
					case !annotated:
					case !isListed:
						report(name.Pos(), ts.Name.Name,
							"field %s.%s is annotated `gcrt:guard %s` but %s is not in the discipline's struct list, so nothing checks it",
							ts.Name.Name, name.Name, spec, ts.Name.Name)
					default:
						if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
							specs[v] = spec
						}
					}
				}
			}
			return true
		})
	}

	for _, name := range cfg.Structs {
		st := listed[name]
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if f.Name() == "_" {
				continue // padding
			}
			spec, ok := specs[f]
			if !ok {
				report(f.Pos(), name, "field %s.%s has no `gcrt:guard` annotation: declare its access discipline at the field", name, f.Name())
				continue
			}
			rule, problem := parseGuard(name, spec, r.mutexes, funcs)
			if problem != "" {
				report(f.Pos(), name, "field %s.%s: %s", name, f.Name(), problem)
				continue
			}
			r.fields[f] = fieldRef{structName: name, fieldName: f.Name(), rule: rule}
		}
	}
	return r, diags, nil
}

// parseGuard parses the `gcrt:guard` spec of a field of structName —
// atomic | by(G) | owner(D) | immutable[(Fn, …)] — resolving a guard
// against the listed structs' mutex fields and an init list against the
// package's functions. A spec that does not parse or resolve yields a
// message saying why.
func parseGuard(structName, spec string, mutexes map[string]*types.Var, funcs map[string]bool) (fieldRule, string) {
	name, arg, hasArg := strings.Cut(spec, "(")
	if hasArg {
		var closed bool
		if arg, closed = strings.CutSuffix(arg, ")"); !closed {
			return fieldRule{}, fmt.Sprintf("`gcrt:guard %s` is missing its closing parenthesis", spec)
		}
		if arg = strings.TrimSpace(arg); arg == "" {
			return fieldRule{}, fmt.Sprintf("empty %s()", name)
		}
	}
	switch {
	case name == "atomic" && !hasArg:
		return fieldRule{class: classAtomic}, ""
	case name == "by" && hasArg:
		key := arg
		if !strings.Contains(key, ".") {
			key = structName + "." + key
		}
		mv := mutexes[key]
		if mv == nil {
			return fieldRule{}, fmt.Sprintf("by(%s): %s is not a mutex field of a listed struct", arg, key)
		}
		return fieldRule{class: classGuarded, guard: mv, guardKey: key}, ""
	case name == "owner" && hasArg:
		return fieldRule{class: classOwner, domain: arg}, ""
	case name == "immutable":
		rule := fieldRule{class: classImmutable}
		if hasArg {
			for _, fn := range strings.Split(arg, ",") {
				fn = strings.TrimSpace(fn)
				if !funcs[fn] {
					return fieldRule{}, fmt.Sprintf("immutable(%s): %q is not a function of this package", arg, fn)
				}
				rule.init = append(rule.init, fn)
			}
		}
		return rule, ""
	}
	return fieldRule{}, fmt.Sprintf("unknown class in `gcrt:guard %s`: want atomic, by(mu), owner(domain) or immutable[(fn, …)]", spec)
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex.
func isMutexType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// annotationOf extracts the `gcrt:guard <spec>` annotation from a field's
// doc or trailing comment.
func annotationOf(fld *ast.Field) (string, bool) {
	for _, cg := range []*ast.CommentGroup{fld.Doc, fld.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if _, spec, ok := strings.Cut(c.Text, "gcrt:guard "); ok {
				return strings.TrimSpace(spec), true
			}
		}
	}
	return "", false
}

// sortedKeys returns a config map's keys in order, so the first
// unresolved entry reported is the same on every run.
func sortedKeys(m map[string][]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
