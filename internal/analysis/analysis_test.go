package analysis_test

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/gcmodel"
	"repro/internal/litmus"
	"repro/internal/tso"
)

// TestReqKindExhaustive checks that every request kind has a String
// case, a declared effect, and a declared responder label — so a kind
// added to gcmodel without updating the declarations fails here.
func TestReqKindExhaustive(t *testing.T) {
	effects := analysis.KindEffects()
	resp := analysis.RespLabels()
	for k := 0; k < gcmodel.NumReqKinds; k++ {
		kind := gcmodel.ReqKind(k)
		if strings.HasPrefix(kind.String(), "ReqKind(") {
			t.Errorf("kind %d has no String case", k)
		}
		if effects[k] == (analysis.KindEffect{}) {
			t.Errorf("kind %v has no declared effect", kind)
		}
		if resp[k] == "" {
			t.Errorf("kind %v has no declared responder label", kind)
		}
	}
	if s := gcmodel.ReqKind(gcmodel.NumReqKinds).String(); !strings.HasPrefix(s, "ReqKind(") {
		t.Errorf("NumReqKinds is not past the last kind: ReqKind(NumReqKinds) = %q", s)
	}
}

// TestLitmusRobustness checks the static Shasha–Snir verdict for every
// litmus program in the catalogue against (a) the recorded expected
// verdict and (b) the dynamic ground truth: a program is robust iff its
// TSO and SC terminal outcome sets coincide. Soundness means every
// dynamically non-robust program must be flagged; this catalogue also
// has no false positives.
func TestLitmusRobustness(t *testing.T) {
	staticNonRobust := map[string]bool{
		"SB":                 true,
		"R":                  true,
		"n6":                 true,
		"SB+mfence-one-side": true,
	}
	for _, tc := range litmus.All() {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			rep := analysis.AnalyzeTSOProgram(tc.Prog)
			wantNonRobust := staticNonRobust[tc.Name]
			if rep.Robust == wantNonRobust {
				t.Errorf("static robust=%v, want %v (critical: %v)",
					rep.Robust, !wantNonRobust, rep.Critical)
			}
			if !rep.Robust && len(rep.Critical) == 0 {
				t.Error("non-robust verdict with no critical pair")
			}

			tsoOut := tso.Explore(tc.Prog, tso.TSO)
			scOut := tso.Explore(tc.Prog, tso.SC)
			dynRobust := outcomesEqual(tsoOut, scOut)
			if !dynRobust && rep.Robust {
				t.Errorf("UNSOUND: TSO/SC outcome sets differ but static analysis says robust")
			}
			if dynRobust != rep.Robust {
				t.Logf("conservative: static non-robust, outcome sets equal")
			}
			if dynRobust == wantNonRobust {
				t.Errorf("recorded expectation stale: dynamic robust=%v", dynRobust)
			}
		})
	}
}

func outcomesEqual(a, b map[string]tso.Outcome) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}

// TestLintCleanPresets checks that no shipped (un-ablated) preset
// triggers any placement rule. It walks core.PresetNames, so a preset
// added to the table is gated without editing this test.
func TestLintCleanPresets(t *testing.T) {
	presets := make(map[string]gcmodel.Config)
	for _, name := range core.PresetNames() {
		cfg, err := core.PresetConfig(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		presets[name] = cfg
	}
	// Variants that are deliberately clean statically: round 4 elision
	// is verified safe dynamically (E12) and the ladder rule exempts
	// it; SCMemory strengthens the model.
	hs4 := core.TinyConfig()
	hs4.Drop = gcmodel.AblationDrop("elide_hs4", hs4.NMutators)
	presets["tiny+elide-hs4"] = hs4
	sc := core.TinyConfig()
	sc.SCMemory = true
	presets["tiny+sc"] = sc

	for name, cfg := range presets {
		rep, err := analysis.LintModel(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !rep.Clean() {
			t.Errorf("%s: unexpected findings: %v", name, rep.Findings)
		}
		if name == "tiny" {
			if len(rep.Relaxed) == 0 {
				t.Error("tiny: expected informational relaxed store→load pairs")
			}
			if len(rep.FenceCoverage) == 0 {
				t.Error("tiny: expected at least one fence with positive coverage")
			}
		}
	}
}

// TestLintAblations checks that every barrier/lock/fence/round ablation
// is flagged by exactly the rule that exists to catch it.
func TestLintAblations(t *testing.T) {
	cases := []struct {
		name  string
		mut   func(*gcmodel.Config)
		rules []string // expected distinct rules, in any order
	}{
		{"no-deletion-barrier", func(c *gcmodel.Config) { c.Drop = gcmodel.AblationDrop("no_deletion_barrier", c.NMutators) },
			[]string{"deletion-barrier"}},
		{"no-insertion-barrier", func(c *gcmodel.Config) { c.Drop = gcmodel.AblationDrop("no_insertion_barrier", c.NMutators) },
			[]string{"insertion-barrier"}},
		{"insertion-gate", func(c *gcmodel.Config) { c.InsertionBarrierOnlyBeforeRootsDone = true },
			[]string{"insertion-barrier"}},
		{"unlocked-mark", func(c *gcmodel.Config) { c.Drop = gcmodel.AblationDrop("unlocked_mark", c.NMutators) },
			[]string{"mark-cas"}},
		{"no-hs-fence", func(c *gcmodel.Config) { c.Drop = gcmodel.AblationDrop("no_hs_fence", c.NMutators) },
			[]string{"handshake-fence"}},
		{"elide-hs1", func(c *gcmodel.Config) { c.Drop = gcmodel.AblationDrop("elide_hs1", c.NMutators) },
			[]string{"phase-ladder"}},
		{"elide-hs2", func(c *gcmodel.Config) { c.Drop = gcmodel.AblationDrop("elide_hs2", c.NMutators) },
			[]string{"phase-ladder"}},
		{"elide-hs3", func(c *gcmodel.Config) { c.Drop = gcmodel.AblationDrop("elide_hs3", c.NMutators) },
			[]string{"phase-ladder"}},
		{"no-barriers-at-all", func(c *gcmodel.Config) {
			c.Drop = gcmodel.AblationDrop("no_deletion_barrier", c.NMutators)
			c.Drop = append(c.Drop, gcmodel.AblationDrop("no_insertion_barrier", c.NMutators)...)
		}, []string{"deletion-barrier", "insertion-barrier"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.TinyConfig()
			tc.mut(&cfg)
			checkRules(t, cfg, tc.rules)
		})
	}
	// Ablations as a JobSpec names them, the path gcmc -lint takes: the
	// JSON alias is decoded strictly and JobSpec.Build expands it into
	// the drop list the rules read.
	specs := []struct {
		name     string
		spec     string
		findings int
		rules    []string
	}{
		{"spec-no-hs-fence", `{"preset":"tiny","ablations":{"no_hs_fence":true}}`,
			7, []string{"handshake-fence"}},
		{"spec-unlocked-mark", `{"preset":"tiny","ablations":{"unlocked_mark":true}}`,
			4, []string{"mark-cas"}},
		{"spec-no-barriers", `{"preset":"tiny","ablations":{"no_deletion_barrier":true,"no_insertion_barrier":true}}`,
			2, []string{"deletion-barrier", "insertion-barrier"}},
	}
	for _, tc := range specs {
		t.Run(tc.name, func(t *testing.T) {
			var spec core.JobSpec
			if err := core.DecodeStrict(strings.NewReader(tc.spec), &spec); err != nil {
				t.Fatal(err)
			}
			cfg, _, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			if n := checkRules(t, cfg, tc.rules); n != tc.findings {
				t.Errorf("%d finding(s), want %d", n, tc.findings)
			}
		})
	}
}

// checkRules lints cfg and requires the distinct rules that fire to be
// exactly rules. It returns the number of findings.
func checkRules(t *testing.T, cfg gcmodel.Config, rules []string) int {
	t.Helper()
	rep, err := analysis.LintModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]bool)
	for _, f := range rep.Findings {
		got[f.Rule] = true
	}
	want := make(map[string]bool)
	for _, r := range rules {
		want[r] = true
	}
	for r := range want {
		if !got[r] {
			t.Errorf("rule %s did not fire; findings: %v", r, rep.Findings)
		}
	}
	for r := range got {
		if !want[r] {
			t.Errorf("unexpected rule %s fired; findings: %v", r, rep.Findings)
		}
	}
	return len(rep.Findings)
}

// TestFootprintExtraction spot-checks the extracted site table against
// the label conventions the analyses anchor on.
func TestFootprintExtraction(t *testing.T) {
	cfg := core.TinyConfig()
	fp, err := analysis.NewFootprint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		label string
		kind  gcmodel.ReqKind
		cls   analysis.LocClass
	}{
		{"mut0_store_write", gcmodel.RWrite, analysis.ClassField},
		{"mut0_store_load_old", gcmodel.RRead, analysis.ClassField},
		{"mut0_delbar_cas_store", gcmodel.RWrite, analysis.ClassMark},
		{"mut0_delbar_lock", gcmodel.RLock, 0},
		{"mut0_hs_done", gcmodel.RHsDone, 0},
		{"gc_write_fM", gcmodel.RWrite, analysis.ClassFM},
		{"gc_write_fA", gcmodel.RWrite, analysis.ClassFA},
		{"gc_write_phase_mark", gcmodel.RWrite, analysis.ClassPhase},
		{"gc_load_fld", gcmodel.RRead, analysis.ClassField},
		{"gc_free", gcmodel.RFree, analysis.ClassMark},
		{"gc_hs_roots_wait_all", gcmodel.RHsWaitAll, 0},
	}
	for _, c := range checks {
		s, ok := fp.Sites[c.label]
		if !ok {
			t.Errorf("site %q not extracted", c.label)
			continue
		}
		if s.Kind != c.kind || s.Loc != c.cls {
			t.Errorf("site %q = kind %v class %v, want %v/%v", c.label, s.Kind, s.Loc, c.kind, c.cls)
		}
	}
	if pid, ok := fp.Locals["sys-dequeue-write-buffer"]; !ok || pid != 2 {
		t.Errorf("dequeue τ label: pid=%d ok=%v, want system PID 2", pid, ok)
	}
}
