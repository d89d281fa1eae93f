package golint

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// checkWants compares diagnostics against the `// want "frag"` comments
// in the fixture directory: every want must match a diagnostic on its
// line, and every diagnostic must be wanted.
func checkWants(t *testing.T, dir string, diags []Diagnostic) {
	t.Helper()
	type want struct {
		line int
		frag string
	}
	var wants []want
	fset := token.NewFileSet()
	files, err := parseDir(fset, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
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

// loadFixture loads the fixture packages in dirs as one module.
func loadFixture(t *testing.T, dirs ...string) *Module {
	t.Helper()
	mod, err := LoadPackages(dirs...)
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

// TestFixture runs the pass over the testdata package and compares the
// diagnostics against the `// want` comments in the fixture source. The
// indirect fixture is loaded alongside it: its own AppendFingerprint
// must not become a root, because roots resolve in the named package.
func TestFixture(t *testing.T) {
	dir := filepath.Join("testdata", "fingerprint")
	mod := loadFixture(t, dir, filepath.Join("testdata", "indirect"))
	diags, err := Check(mod, "testdata/fingerprint", []string{"AppendFingerprint"})
	if err != nil {
		t.Fatal(err)
	}
	checkWants(t, dir, diags)
}

// TestIndirectFixture is the call-graph regression fixture: map ranges
// in functions reachable only through method values, function values,
// and goroutine closures must all be flagged.
func TestIndirectFixture(t *testing.T) {
	dir := filepath.Join("testdata", "indirect")
	diags, err := Check(loadFixture(t, dir), "testdata/indirect", []string{"AppendFingerprint"})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) < 4 {
		t.Errorf("expected at least 4 findings (method value, function value, closure, spawned helper), got %d: %v", len(diags), diags)
	}
	checkWants(t, dir, diags)
}

// TestFixtureParses guards the fixture itself: want comments must sit on
// range statements, or the line assertions above test nothing.
func TestFixtureParses(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filepath.Join("testdata", "fingerprint", "fingerprint.go"), nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	if f.Name.Name != "fingerprint" {
		t.Fatalf("fixture package %q", f.Name.Name)
	}
}
