package analysis_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gcmodel"
)

// TestValidatedExploreCapped runs bounded validated explorations over
// several presets: every taken transition is checked against the
// declared effect footprint and the derived POR classification is
// diffed against the handwritten one at every visited state.
func TestValidatedExploreCapped(t *testing.T) {
	for name, cfg := range map[string]gcmodel.Config{
		"tiny":              core.TinyConfig(),
		"alloc":             core.AllocConfig(),
		"two-mutator":       core.TwoMutatorConfig(),
		"two-mutator-loads": core.TwoMutatorLoadsConfig(),
		"chain":             core.ChainConfig(),
	} {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			res, err := core.Verify(cfg, core.VerifyOptions{
				MaxStates:       20_000,
				ValidateEffects: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			// Capped runs: NoViolation, not Holds — these explorations
			// are deliberately bounded.
			if !res.NoViolation() {
				t.Fatalf("violation:\n%s", res.RenderViolation())
			}
			ev, st := res.Effects.Stats()
			if ev == 0 || st == 0 {
				t.Fatalf("validator ran on %d events, %d states", ev, st)
			}
			t.Logf("validated %d events, %d states", ev, st)
		})
	}
}

// TestValidatedExploreReduced exercises the validator together with the
// partial-order reduction: the POR diff must hold on the reduced visited
// set too.
func TestValidatedExploreReduced(t *testing.T) {
	res, err := core.Verify(core.SymmetricConfig(), core.VerifyOptions{
		MaxStates:       20_000,
		Reduce:          true,
		ValidateEffects: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.NoViolation() {
		t.Fatalf("violation:\n%s", res.RenderViolation())
	}
}

// TestValidatedExploreFullTiny exhausts the default tiny configuration
// with effect validation on and checks the verdict and state counts are
// identical to the unvalidated baseline: the validator observed every
// transition and every state of the canonical run without disturbing
// it.
func TestValidatedExploreFullTiny(t *testing.T) {
	if raceEnabled {
		t.Skip("full exploration skipped under -race")
	}
	if testing.Short() {
		t.Skip("model checking is slow")
	}
	base, err := core.Verify(core.TinyConfig(), core.VerifyOptions{MaxStates: 3_000_000})
	if err != nil {
		t.Fatal(err)
	}
	val, err := core.Verify(core.TinyConfig(), core.VerifyOptions{
		MaxStates:       3_000_000,
		ValidateEffects: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !val.Holds() {
		t.Fatalf("violation:\n%s", val.RenderViolation())
	}
	if !base.Complete || !val.Complete {
		t.Fatal("state space not exhausted within cap")
	}
	if base.States != val.States || base.Transitions != val.Transitions ||
		base.Depth != val.Depth || base.Deadlocks != val.Deadlocks {
		t.Fatalf("validated run diverged: states %d/%d transitions %d/%d depth %d/%d deadlocks %d/%d",
			base.States, val.States, base.Transitions, val.Transitions,
			base.Depth, val.Depth, base.Deadlocks, val.Deadlocks)
	}
	ev, st := val.Effects.Stats()
	if int(ev) != val.Transitions {
		t.Errorf("validator saw %d events, run took %d transitions", ev, val.Transitions)
	}
	if int(st) != val.States {
		t.Errorf("validator saw %d states, run visited %d", st, val.States)
	}
	t.Logf("states=%d transitions=%d depth=%d — all transitions and states validated",
		val.States, val.Transitions, val.Depth)
}
