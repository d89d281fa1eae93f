package liveness_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/gcmodel"
	"repro/internal/liveness"
	"repro/internal/trace"
)

// The paper proves safety only; the progress obligations it states
// informally are checked here as weakly fair cycles. The clean model
// satisfies all of them. Muting the mutators' handshake poll (§3.1's
// regular-polling assumption dropped) leaves a signalled handshake
// pending forever, and never committing buffered stores leaves a buffer
// full forever. Each counterexample is a lasso: a stem, then a cycle that
// repeats forever, replayed through the unreduced relation.
func ExampleCheck() {
	for _, abl := range []core.Ablations{{}, {MuteHandshake: true}, {NoDequeue: true}} {
		cfg := core.TinyConfig()
		// Stores only, budget 1, buffers bounded at 1: at most 15,541
		// states.
		cfg.OpBudget, cfg.MaxBuf = 1, 1
		cfg.DisableLoad, cfg.DisableDiscard = true, true
		abl.Apply(&cfg)
		m, err := gcmodel.Build(cfg)
		if err != nil {
			panic(err)
		}
		// One worker: the stem is the path the search recorded to the
		// cycle, and that follows whichever parent won each insert race.
		res, err := liveness.Check(m, liveness.Options{}, explore.Options{Workers: 1})
		if err != nil {
			panic(err)
		}
		name := "clean"
		if s := abl.String(); s != "" {
			name = s
		}
		fmt.Printf("%s: %d states\n", name, res.States)
		for _, p := range res.Properties {
			if p.Holds {
				fmt.Printf("  %-13s holds\n", p.Name)
				continue
			}
			l := p.Counterexample
			fmt.Printf("  %-13s fair cycle, stem %d steps, replays: %v\n",
				p.Name, len(l.Stem), liveness.VerifyLasso(m, l) == nil)
			for _, s := range l.Cycle {
				fmt.Printf("    forever: %s\n", trace.Event(m, s.Ev))
			}
		}
	}
	// Output:
	// clean: 15541 states
	//   hs-ack-m0     holds
	//   gc-sweep      holds
	//   buf-drain-gc  holds
	//   buf-drain-m0  holds
	// mute-handshake: 60 states
	//   hs-ack-m0     fair cycle, stem 11 steps, replays: true
	//     forever: mut0 ⇄ sys: mut0_mfence [p1 mfence]
	//   gc-sweep      fair cycle, stem 11 steps, replays: true
	//     forever: mut0 ⇄ sys: mut0_mfence [p1 mfence]
	//   buf-drain-gc  holds
	//   buf-drain-m0  holds
	// no-dequeue: 122 states
	//   hs-ack-m0     holds
	//   gc-sweep      fair cycle, stem 18 steps, replays: true
	//     forever: mut0 ⇄ sys: mut0_hs_poll [p1 hs-poll]
	//   buf-drain-gc  fair cycle, stem 18 steps, replays: true
	//     forever: mut0 ⇄ sys: mut0_hs_poll [p1 hs-poll]
	//   buf-drain-m0  fair cycle, stem 16 steps, replays: true
	//     forever: mut0 ⇄ sys: mut0_hs_poll [p1 hs-poll]
}
