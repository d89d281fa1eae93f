package gortlint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis/golint"
)

// HooksConfig restricts benchmark-only hooks to benchmark code. The
// arena exports raw mark-flag mutators (SetFlagForBenchmark,
// WhitenForBenchmark) so microbenchmarks can re-measure the marking CAS;
// calling either from a production path silently corrupts the tri-color
// invariant the verified protocol maintains. Test files are never loaded
// by the analyzer (parseDir skips _test.go), so the only legitimate
// non-test callers are the packages listed here (none, on the real tree).
type HooksConfig struct {
	// Package declares the restricted functions (import path or suffix).
	Package string
	// RestrictedFns are the benchmark-only funcKeys.
	RestrictedFns []string
	// AllowedPkgSuffixes are import-path suffixes of packages permitted
	// to reference the hooks (e.g. "testdata/hooks/bench").
	AllowedPkgSuffixes []string
}

// CheckHooks flags every reference to a restricted hook from a package
// not on the allow list.
func CheckHooks(mod *golint.Module, cfg HooksConfig) ([]golint.Diagnostic, error) {
	pkg := mod.Package(cfg.Package)
	if pkg == nil {
		return nil, fmt.Errorf("gortlint: package %s not loaded", cfg.Package)
	}
	// Resolve the restricted keys to function objects, failing loudly on
	// drift (a renamed hook must not silently uncheck).
	restricted := make(map[*types.Func]string, len(cfg.RestrictedFns))
	want := toSet(cfg.RestrictedFns)
	for _, f := range mod.Functions() {
		if f.Pkg != pkg {
			continue
		}
		if key := f.Key(); want[key] {
			restricted[f.Fn] = key
			delete(want, key)
		}
	}
	for key := range want {
		return nil, fmt.Errorf("gortlint: restricted hook %s not found in %s (renamed?)", key, pkg.Path)
	}

	allowed := func(path string) bool {
		for _, suf := range cfg.AllowedPkgSuffixes {
			if path == suf || strings.HasSuffix(path, "/"+suf) {
				return true
			}
		}
		return false
	}

	var diags []golint.Diagnostic
	for _, p := range mod.Packages() {
		if allowed(p.Path) {
			continue
		}
		for _, file := range p.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				fn, ok := p.Info.Uses[id].(*types.Func)
				if !ok {
					return true
				}
				if key, isRestricted := restricted[fn]; isRestricted {
					diags = append(diags, golint.Diagnostic{
						Pos:  mod.Fset().Position(id.Pos()),
						Func: p.Path,
						Message: fmt.Sprintf(
							"benchmark-only hook %s referenced outside test and benchmark code: it writes the raw mark flag and breaks the tri-color invariant on production paths", key),
					})
				}
				return true
			})
		}
	}
	golint.SortDiagnostics(diags)
	return diags, nil
}
