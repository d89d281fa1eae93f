package diffcheck

import (
	"testing"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/gcmodel"
	"repro/internal/invariant"
)

// corpusEntry is one collector-model configuration of the differential
// corpus, with the reduction modes expected to strictly shrink it.
type corpusEntry struct {
	name string
	cfg  gcmodel.Config
	// strict lists mode names whose reduced run must visit strictly
	// fewer states than the full run (the ISSUE acceptance criterion);
	// modes not listed only need the sound "no more states" bound.
	strict []string
	// heavy marks entries skipped under the race detector, where their
	// ~200k-state explorations would take minutes. The remaining
	// entries still exercise every mode under -race.
	heavy bool
}

// tinySmall is TinyConfig shrunk one notch (budget 1, buffer 1) so that
// four uncapped explorations stay under ~15s total.
func tinySmall() gcmodel.Config {
	cfg := core.TinyConfig()
	cfg.OpBudget = 1
	cfg.MaxBuf = 1
	return cfg
}

func corpus() []corpusEntry {
	tinySC := tinySmall()
	tinySC.SCMemory = true

	symHS := core.SymmetricConfig()
	symHS.DisableStore = true

	tinyDel := tinySmall()
	tinyDel.NoDeletionBarrier = true

	symDel := core.SymmetricConfig()
	symDel.NoDeletionBarrier = true

	return []corpusEntry{
		// Safe single-mutator configuration under TSO: the main
		// partial-order-reduction workload.
		{name: "tiny", cfg: tinySmall(), strict: []string{"reduce"}, heavy: true},
		// The SC oracle: reduction logic takes the SCMemory paths.
		{name: "tiny-sc", cfg: tinySC, strict: []string{"reduce"}, heavy: true},
		// Two mutators with identical roots, handshake-only: small enough
		// to run everywhere, with ragged handshakes across two mutators.
		{name: "sym-handshake", cfg: symHS, strict: []string{"reduce"}},
		// Ablated (violating) configurations: verdict preservation and
		// counterexample replay on the buggy side of the fence.
		{name: "tiny-no-deletion-barrier", cfg: tinyDel},
		{name: "sym-no-deletion-barrier", cfg: symDel, strict: []string{"reduce"}},
	}
}

// TestModelCorpusDifferential is the collector-model half of the
// harness: every corpus configuration is explored in full and under
// every reduction mode; verdicts must match, reduced state counts must
// not exceed the full count (strictly smaller where declared), and
// every counterexample must replay through the unreduced relation.
func TestModelCorpusDifferential(t *testing.T) {
	for _, e := range corpus() {
		e := e
		t.Run(e.name, func(t *testing.T) {
			if e.heavy && raceEnabled {
				t.Skip("heavy corpus entry skipped under -race")
			}
			c, err := CompareModel(e.cfg, Modes())
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Check(); err != nil {
				t.Fatal(err)
			}
			verdict := "holds"
			if c.Full.Violation != nil {
				verdict = "violates " + c.Full.Violation.Invariant
			}
			t.Logf("full: states=%d depth=%d (%s)", c.Full.States, c.Full.Depth, verdict)
			for _, r := range c.Runs {
				t.Logf("%-16s states=%d (%.2fx) ample=%d", r.Mode.Name, r.Result.States,
					float64(c.Full.States)/float64(r.Result.States), r.Result.AmpleStates)
				for _, want := range e.strict {
					if r.Mode.Name == want && r.Result.States >= c.Full.States {
						t.Errorf("%s: expected strictly fewer states than full (%d), got %d",
							r.Mode.Name, c.Full.States, r.Result.States)
					}
				}
			}
		})
	}
}

// TestCounterexampleReplayUnderReduction pins the replay property on
// its own: a violation found under reduction must still be
// a concrete run of the unreduced system ending in a violating state.
// (TestModelCorpusDifferential exercises the same property across the
// corpus; this test keeps a direct, cheap witness of it.)
func TestCounterexampleReplayUnderReduction(t *testing.T) {
	cfg := tinySmall()
	cfg.NoDeletionBarrier = true
	m, err := gcmodel.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checks := invariant.All()
	res := explore.Run(m, checks, explore.Options{Trace: true, HashOnly: true, Reduce: true})
	if res.Violation == nil {
		t.Fatal("deletion-barrier ablation should violate an invariant")
	}
	if err := VerifyReplay(m, res.Violation, checks); err != nil {
		t.Fatal(err)
	}
	t.Logf("replayed a %d-step counterexample (%s at depth %d) through the unreduced relation",
		len(res.Violation.Trace), res.Violation.Invariant, res.Violation.Depth)
}

// TestVerifyReplayRejectsTamperedTraces makes sure the replay verifier
// has teeth: corrupting a recorded step must make it fail.
func TestVerifyReplayRejectsTamperedTraces(t *testing.T) {
	cfg := tinySmall()
	cfg.NoDeletionBarrier = true
	m, err := gcmodel.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checks := invariant.All()
	res := explore.Run(m, checks, explore.Options{Trace: true, HashOnly: true, Reduce: true})
	if res.Violation == nil || len(res.Violation.Trace) < 2 {
		t.Fatal("need a multi-step counterexample")
	}
	bad := *res.Violation
	bad.Trace = append([]explore.Step(nil), res.Violation.Trace...)
	mid := len(bad.Trace) / 2
	bad.Trace[mid].Ev.Label = "no-such-label"
	if err := VerifyReplay(m, &bad, checks); err == nil {
		t.Fatal("replay accepted a trace with a corrupted event")
	}
	bad = *res.Violation
	bad.Trace = nil
	if err := VerifyReplay(m, &bad, checks); err == nil {
		t.Fatal("replay accepted a violation without a trace")
	}
}
