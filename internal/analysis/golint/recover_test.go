package golint

import (
	"path/filepath"
	"testing"
)

// TestRecoverFixture runs the recover-guard pass over the spawn fixture
// and compares the diagnostics against its `// want` comments.
func TestRecoverFixture(t *testing.T) {
	dir := filepath.Join("testdata", "spawn")
	diags, err := CheckGoRecover(loadFixture(t, dir), "testdata/spawn")
	if err != nil {
		t.Fatal(err)
	}
	checkWants(t, dir, diags)
}
