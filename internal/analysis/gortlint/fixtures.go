package gortlint

import (
	"repro/internal/analysis/golint"
)

// FixtureSpec pairs an analyzer pass with a seeded-defect fixture it
// must flag. The CLI's -gosrc-fixtures mode runs every spec and treats
// a fixture that produces NO findings as a regression: the gate that
// keeps the real trees honest only means something while the passes
// demonstrably still catch the defects they were built for.
type FixtureSpec struct {
	// Name identifies the spec in CLI and test output.
	Name string
	// Dirs are the fixture load roots, relative to the module root.
	Dirs []string
	// Min is the number of findings the seeded defects guarantee.
	Min int
	// Run executes the pass against the loaded fixture module.
	Run func(mod *golint.Module) ([]golint.Diagnostic, error)
}

// fixtureBase is the fixture root, relative to the module root.
const fixtureBase = "internal/analysis/gortlint/testdata"

// Fixtures returns every seeded-defect fixture spec. The package tests
// additionally check the findings line-by-line against the fixtures'
// `// want` comments; the CLI smoke only requires Min findings.
func Fixtures() []FixtureSpec {
	return []FixtureSpec{
		{
			Name: "discipline",
			Dirs: []string{fixtureBase + "/discipline"},
			Min:  14,
			Run: func(mod *golint.Module) ([]golint.Diagnostic, error) {
				return CheckDiscipline(mod, fixtureDiscipline())
			},
		},
		{
			Name: "barriers",
			Dirs: []string{fixtureBase + "/barrier"},
			Min:  4,
			Run: func(mod *golint.Module) ([]golint.Diagnostic, error) {
				return CheckBarriers(mod, fixtureBarriers())
			},
		},
		{
			Name: "publication",
			Dirs: []string{fixtureBase + "/publish"},
			Min:  4,
			Run: func(mod *golint.Module) ([]golint.Diagnostic, error) {
				return CheckPublish(mod, fixturePublish())
			},
		},
	}
}

// fixtureDiscipline puts the discipline fixture's register struct in
// scope; its seeded annotation defects are in the fixture source.
func fixtureDiscipline() DisciplineConfig {
	return DisciplineConfig{
		Package: "testdata/discipline",
		Structs: []string{"register"},
		Init:    []string{"newRegister"},
		Exempt: map[string][]string{
			"audit": {"register.wl"},
		},
		Holds: map[string][]string{
			"bumpLocked": {"register.mu"},
		},
	}
}

func fixtureBarriers() BarrierConfig {
	return BarrierConfig{
		Package:   "testdata/barrier",
		StoreFns:  []string{"heap.StoreField"},
		BarrierFn: "heap.barrierHit",
		Audited: map[string]int{
			"heap.Store":                 2,
			"heap.StoreMissingInsertion": 2,
			"heap.StoreGuardedWrong":     2,
		},
		AblationFlags: []string{"NoDel", "NoIns"},
		RawFields:     []string{"heap.fields"},
		AllowedRaw:    []string{"heap.StoreField"},
	}
}

func fixturePublish() PublishConfig {
	return PublishConfig{
		Package:           "testdata/publish",
		ReservationFields: []string{"pool.free"},
		InstallFns:        []string{"heap.install"},
		PublishFns:        []string{"heap.storeField"},
	}
}
