package analysis_test

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/core"
)

// The placement rules judge a configuration without exploring it: the
// shipped collector is clean, and each ablation breaks a named rule.
func ExampleLintModel() {
	for _, abl := range []core.Ablations{{}, {NoDeletionBarrier: true}, {UnlockedMark: true}, {NoHSFence: true}, {ElideHS2: true}} {
		cfg := core.TinyConfig()
		abl.Apply(&cfg)
		rep, err := analysis.LintModel(cfg)
		if err != nil {
			panic(err)
		}
		verdict := "clean"
		if !rep.Clean() {
			verdict = rep.Findings[0].Rule
		}
		name := "clean"
		if s := abl.String(); s != "" {
			name = s
		}
		fmt.Printf("%-20s %s\n", name+":", verdict)
	}
	// Output:
	// clean:               clean
	// no-deletion-barrier: deletion-barrier
	// unlocked-mark:       mark-cas
	// no-hs-fence:         handshake-fence
	// elide-hs2:           phase-ladder
}

// The report also names what the model deliberately tolerates: every
// store→load pair TSO may reorder, and how many of them each fence
// suppresses.
func ExampleModelReport() {
	rep, err := analysis.LintModel(core.TinyConfig())
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d relaxed pairs; e.g. %s → %s on p%d\n",
		len(rep.Relaxed), rep.Relaxed[0].Store, rep.Relaxed[0].Load, rep.Relaxed[0].PID)
	for _, c := range rep.FenceCoverage {
		fmt.Printf("fence %s suppresses %d pair(s)\n", c.Label, c.Covers)
	}
	// Output:
	// 11 relaxed pairs; e.g. gc_write_phase_sweep → gc_load_sweep_flag on p0
	// fence mut0_hs_mfence_accept suppresses 4 pair(s)
}

// A validated exploration ties the static layer to the dynamic semantics:
// every transition is checked against the declared footprint, and every
// step the reduction would take alone is run against every other enabled
// step.
func ExampleValidator() {
	// One worker: a capped run stops within a chunk of the cap, and where
	// depends on how the workers interleave.
	res, err := core.Verify(core.TinyConfig(), core.VerifyOptions{MaxStates: 20_000, ValidateEffects: true, Workers: 1})
	if err != nil {
		panic(err)
	}
	events, states := res.Effects.Stats()
	fmt.Printf("%s: %d states, %d transitions\n", res.Status(), res.States, res.Transitions)
	fmt.Printf("%d transitions and %d states validated, %d ample steps run in both orders\n",
		events, states, res.Effects.AmpleChecked())
	// Output:
	// no-violation: 20000 states, 52913 transitions
	// 52913 transitions and 20000 states validated, 6689 ample steps run in both orders
}
