// Staticanalysis: lint the collector model without exploring it, and
// cross-check the static layer against the dynamic checker.
//
// The static analyzer (package analysis, CLI cmd/gclint) never runs the
// model. It extracts a declared effect footprint from the CIMP program
// trees, builds per-process control-flow graphs, and evaluates the
// paper's protocol obligations as placement rules: barrier placement on
// every store path, the lock around the mark CAS, fences before
// handshake signalling, and a full handshake round between the phase
// writes. This example shows the three ways the layer pays off:
//
//  1. an ablated configuration is rejected in milliseconds, naming the
//     broken rule — no million-state search needed;
//  2. the informational report names every relaxed store→load pair the
//     model deliberately tolerates (the paper's point) and what each
//     mfence suppresses;
//  3. a bounded validated exploration replays every transition against
//     the declared footprint and runs every step the partial-order
//     reduction would take alone against every other enabled step,
//     tying the static layer to the dynamic semantics.
//
// Run:
//
//	go run ./examples/staticanalysis
package main

import (
	"fmt"
	"log"

	"repro/internal/analysis"
	"repro/internal/core"
)

func main() {
	// 1. Static verdicts: the shipped model is clean, ablations are not.
	fmt.Println("== static placement rules ==")
	clean, err := analysis.LintModel(core.TinyConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tiny:                  clean=%v\n", clean.Clean())

	ablations := []struct {
		name string
		mut  func(*core.ModelConfig)
	}{
		{"no-deletion-barrier", func(c *core.ModelConfig) { core.Ablations{NoDeletionBarrier: true}.Apply(c) }},
		{"unlocked-mark", func(c *core.ModelConfig) { core.Ablations{UnlockedMark: true}.Apply(c) }},
		{"no-hs-fence", func(c *core.ModelConfig) { core.Ablations{NoHSFence: true}.Apply(c) }},
		{"elide-hs2", func(c *core.ModelConfig) { core.Ablations{ElideHS2: true}.Apply(c) }},
	}
	for _, abl := range ablations {
		cfg := core.TinyConfig()
		abl.mut(&cfg)
		rep, err := analysis.LintModel(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s %s\n", abl.name+":", rep.Findings[0].Rule)
	}

	// 2. What the model tolerates: relaxed pairs and fence coverage.
	fmt.Println("\n== tolerated relaxed store→load pairs (informational) ==")
	fmt.Printf("%d pairs; e.g. %s → %s on p%d\n",
		len(clean.Relaxed), clean.Relaxed[0].Store, clean.Relaxed[0].Load, clean.Relaxed[0].PID)
	for _, c := range clean.FenceCoverage {
		fmt.Printf("fence %s suppresses %d pair(s)\n", c.Label, c.Covers)
	}

	// 3. Dynamic cross-check: replay the declarations against a bounded
	// exploration.
	fmt.Println("\n== validated exploration (bounded) ==")
	res, err := core.Verify(core.TinyConfig(), core.VerifyOptions{
		MaxStates:       50_000,
		ValidateEffects: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	ev, st := res.Effects.Stats()
	fmt.Printf("no-violation=%v states=%d transitions=%d\n", res.NoViolation(), res.States, res.Transitions)
	fmt.Printf("%d transitions checked against the declared footprint,\n", ev)
	fmt.Printf("%d states visited, %d ample steps run in both orders against every other step\n", st, res.Effects.AmpleChecked())
}
