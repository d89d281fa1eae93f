package gortlint

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis/golint"
)

// checkWants compares diagnostics against the `// want "frag"` comments
// in a fixture directory: every want must be matched by a diagnostic on
// its line, and every diagnostic must be wanted.
func checkWants(t *testing.T, dir string, diags []golint.Diagnostic) {
	t.Helper()
	type want struct {
		line int
		frag string
	}
	var wants []want
	fset := token.NewFileSet()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, `// want "`)
				if !ok {
					continue
				}
				wants = append(wants, want{
					line: fset.Position(c.Pos()).Line,
					frag: strings.TrimSuffix(rest, `"`),
				})
			}
		}
	}
	if len(wants) == 0 {
		t.Fatal("fixture has no want comments")
	}

	matched := make([]bool, len(diags))
	for _, w := range wants {
		found := false
		for i, d := range diags {
			if !matched[i] && d.Pos.Line == w.line && strings.Contains(d.Message, w.frag) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no diagnostic at fixture line %d matching %q; got %v", w.line, w.frag, diags)
		}
	}
	for i, d := range diags {
		if !matched[i] {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}

// load loads module-root-relative dirs as one module.
func load(t *testing.T, dirs []string) *golint.Module {
	t.Helper()
	root, err := golint.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	abs := make([]string, len(dirs))
	for i, d := range dirs {
		abs[i] = filepath.Join(root, d)
	}
	mod, err := golint.LoadPackages(abs...)
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

// TestFixtures runs every seeded-defect fixture and checks the findings
// exactly against the want comments.
func TestFixtures(t *testing.T) {
	root, err := golint.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range fixtures() {
		t.Run(spec.Name, func(t *testing.T) {
			diags, err := spec.Run(load(t, spec.Dirs))
			if err != nil {
				t.Fatal(err)
			}
			checkWants(t, filepath.Join(root, spec.Dirs[0]), diags)
		})
	}
}

// TestDisciplineNamesResolve misspells one name of each kind in the
// fixture's config: each must fail the pass with an error naming the
// entry, not drop out of the check silently.
func TestDisciplineNamesResolve(t *testing.T) {
	mod := load(t, []string{fixtureBase + "/discipline"})
	for _, tc := range []struct {
		name  string
		edit  func(cfg *DisciplineConfig)
		entry string
	}{
		{"struct", func(cfg *DisciplineConfig) { cfg.Structs = []string{"registr"} }, "registr"},
		{"init", func(cfg *DisciplineConfig) { cfg.Init = []string{"newRegistr"} }, "newRegistr"},
		{"exempt-func", func(cfg *DisciplineConfig) { cfg.Exempt = map[string][]string{"audt": {"register.wl"}} }, "audt"},
		{"exempt-field", func(cfg *DisciplineConfig) { cfg.Exempt = map[string][]string{"audit": {"register.wll"}} }, "register.wll"},
		{"holds-func", func(cfg *DisciplineConfig) { cfg.Holds = map[string][]string{"bumpLockd": {"register.mu"}} }, "bumpLockd"},
		{"holds-guard", func(cfg *DisciplineConfig) { cfg.Holds = map[string][]string{"bumpLocked": {"register.mux"}} }, "register.mux"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := fixtureDiscipline()
			tc.edit(&cfg)
			_, err := CheckDiscipline(mod, cfg)
			if err == nil || !strings.Contains(err.Error(), tc.entry) {
				t.Fatalf("misspelt %s entry %q: got error %v", tc.name, tc.entry, err)
			}
		})
	}
}

// The zero-findings gates below run the passes over one module loaded
// from roots, shared by every test in the package.
var (
	treeOnce sync.Once
	tree     *golint.Module
)

// check runs p over the real tree and requires zero findings.
func check(t *testing.T, p pass) {
	t.Helper()
	treeOnce.Do(func() { tree = load(t, roots()) })
	if tree == nil {
		t.Fatal("the real tree did not load")
	}
	diags, err := p.Run(tree)
	if err != nil {
		t.Fatalf("%s %s: %v", p.Name, p.Dir, err)
	}
	for _, d := range diags {
		t.Errorf("%s %s: %s", p.Name, p.Dir, d)
	}
}

// gate runs the named passes over the real tree and requires zero
// findings from each.
func gate(t *testing.T, names ...string) {
	t.Helper()
	for _, name := range names {
		ran := false
		for _, p := range passes() {
			if p.Name == name {
				ran = true
				check(t, p)
			}
		}
		if !ran {
			t.Fatalf("no pass named %s", name)
		}
	}
}

// TestEveryPassClean runs every entry of passes, so a pass appended
// there is gated before it has a named test of its own.
func TestEveryPassClean(t *testing.T) {
	for _, p := range passes() {
		check(t, p)
	}
}

// TestGCRTDiscipline is the zero-findings gate over the real runtime:
// every shared field annotated, and accessed per its class.
func TestGCRTDiscipline(t *testing.T) { gate(t, "gcrt-discipline") }

// TestGCRTBarriers gates the barrier placement on the real runtime.
func TestGCRTBarriers(t *testing.T) { gate(t, "gcrt-barriers") }

// TestGCRTPublish gates the publication discipline on the real runtime.
func TestGCRTPublish(t *testing.T) { gate(t, "gcrt-publication") }

// TestServerDiscipline gates the verification service's engine: the
// same analyzer, different annotations — the discipline framework is
// generic over the declaration.
func TestServerDiscipline(t *testing.T) { gate(t, "server-discipline") }

// TestStorageDiscipline gates the hostile-disk layer: the fault-
// injecting filesystem conforms to its declared access discipline with
// zero findings.
func TestStorageDiscipline(t *testing.T) { gate(t, "storage-discipline") }

// TestRealFingerprintGraph requires the fingerprint call graph of the
// real gcmodel package to contain no map iteration.
func TestRealFingerprintGraph(t *testing.T) { gate(t, "fingerprint-map-order") }

// TestRealSpawnsGuarded requires every goroutine spawned by the
// checker, the liveness pass, the service and the runtime to install
// its panic-containment guard, or a worker panic takes down the run
// the durability layer exists to save.
func TestRealSpawnsGuarded(t *testing.T) { gate(t, "goroutine-recover-guard") }
