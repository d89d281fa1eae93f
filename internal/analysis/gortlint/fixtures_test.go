package gortlint

import (
	"repro/internal/analysis/golint"
)

// fixtureSpec pairs an analyzer pass with a seeded-defect fixture it
// must flag. TestFixtures matches the findings exactly against the
// fixture's `// want` comments: the gates over the real trees only mean
// something while the passes demonstrably still catch the defects they
// were built for.
type fixtureSpec struct {
	// Name identifies the spec in test output.
	Name string
	// Dirs are the fixture load roots, relative to the module root.
	Dirs []string
	// Run executes the pass against the loaded fixture module.
	Run func(mod *golint.Module) ([]golint.Diagnostic, error)
}

// fixtureBase is the fixture root, relative to the module root.
const fixtureBase = "internal/analysis/gortlint/testdata"

// fixtures returns every seeded-defect fixture spec.
func fixtures() []fixtureSpec {
	return []fixtureSpec{
		{
			Name: "discipline",
			Dirs: []string{fixtureBase + "/discipline"},
			Run: func(mod *golint.Module) ([]golint.Diagnostic, error) {
				return CheckDiscipline(mod, fixtureDiscipline())
			},
		},
		{
			Name: "barriers",
			Dirs: []string{fixtureBase + "/barrier"},
			Run: func(mod *golint.Module) ([]golint.Diagnostic, error) {
				return CheckBarriers(mod, fixtureBarriers())
			},
		},
		{
			Name: "publication",
			Dirs: []string{fixtureBase + "/publish"},
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
