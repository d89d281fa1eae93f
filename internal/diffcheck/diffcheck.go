// Package diffcheck is the differential-testing harness that proves the
// model checker's state-space reduction sound in practice. The
// reduction under test is the TSO-aware partial-order reduction of the
// litmus explorer (tso.ExploreOptions.Reduce) and of the collector-model
// checker (explore.Options.Reduce), which at states with a provably
// commuting "safe" buffer-local step pursue only that step.
//
// It comes with a pen-and-paper commutation argument (see
// gcmodel/reduce.go and DESIGN.md), but the argument is subtle — an
// earlier draft wrongly classified store-forwarded reads as safe — so
// this package re-derives the soundness claim empirically on every run
// of the test suite:
//
//   - every published litmus test and a corpus of randomly generated
//     small TSO programs must produce the identical terminal-outcome
//     set with and without reduction (witness observability included);
//   - a corpus of collector-model configurations, safe and ablated,
//     must produce the identical verdict under every reduction mode;
//   - every counterexample found under reduction must replay step by
//     step through the UNREDUCED transition relation and end in a
//     state that violates the reported invariant; and
//   - reduced runs must never visit more states than full runs.
//
// The harness is a permanent regression suite: any future change to the
// safe-step classification that breaks soundness on the covered
// configurations fails these tests.
package diffcheck

import (
	"fmt"

	"repro/internal/cimp"
	"repro/internal/explore"
	"repro/internal/gcmodel"
	"repro/internal/invariant"
	"repro/internal/tso"
)

// --- TSO litmus-program differential ------------------------------------

// TSOComparison pairs the full and reduced explorations of one litmus
// program under one memory model.
type TSOComparison struct {
	Full    tso.ExploreResult
	Reduced tso.ExploreResult
}

// CompareTSO explores p twice — exhaustively and under partial-order
// reduction — and checks the soundness obligations: identical
// terminal-outcome sets (so every witness observable in full remains
// observable reduced, and no new witness appears) and no more visited
// states. The explorations themselves are returned so callers can make
// further assertions (e.g. that the reduction actually shrank a
// particular program).
func CompareTSO(p tso.Program, model tso.Model) (TSOComparison, error) {
	c := TSOComparison{
		Full:    tso.ExploreX(p, model, tso.ExploreOptions{}),
		Reduced: tso.ExploreX(p, model, tso.ExploreOptions{Reduce: true}),
	}
	full, reduced := tso.OutcomeKeys(c.Full.Outcomes), tso.OutcomeKeys(c.Reduced.Outcomes)
	if len(full) != len(reduced) {
		return c, fmt.Errorf("outcome sets differ (%d full vs %d reduced):\n  full:    %v\n  reduced: %v",
			len(full), len(reduced), full, reduced)
	}
	for i := range full {
		if full[i] != reduced[i] {
			return c, fmt.Errorf("outcome sets differ at %q vs %q:\n  full:    %v\n  reduced: %v",
				full[i], reduced[i], full, reduced)
		}
	}
	if c.Reduced.States > c.Full.States {
		return c, fmt.Errorf("reduced run visited %d states, more than the full run's %d",
			c.Reduced.States, c.Full.States)
	}
	return c, nil
}

// --- Collector-model differential ---------------------------------------

// Mode names one reduced configuration of the collector-model checker.
type Mode struct {
	Name   string
	Reduce bool
}

// Modes returns every reduced checker configuration that the harness
// validates against the full exploration.
func Modes() []Mode {
	return []Mode{
		{Name: "reduce", Reduce: true},
	}
}

// ModelRun is one reduced exploration of a configuration.
type ModelRun struct {
	Mode   Mode
	Result explore.Result
}

// ModelComparison holds one full exploration of a configuration plus a
// reduced re-exploration per mode, all over the same built model.
type ModelComparison struct {
	Model  *gcmodel.Model
	Checks []invariant.Check
	Full   explore.Result
	Runs   []ModelRun
}

// CompareModel builds cfg once, explores it in full, and re-explores it
// once per mode. All runs are uncapped (capped runs are not comparable:
// a reduction may defer work past an arbitrary state bound) and record
// counterexample traces. Use Check to validate the results.
func CompareModel(cfg gcmodel.Config, modes []Mode) (*ModelComparison, error) {
	m, err := gcmodel.Build(cfg)
	if err != nil {
		return nil, fmt.Errorf("diffcheck: %w", err)
	}
	c := &ModelComparison{Model: m, Checks: invariant.All()}
	c.Full = explore.Run(m, c.Checks, explore.Options{Trace: true, HashOnly: true})
	for _, mode := range modes {
		res := explore.Run(m, c.Checks, explore.Options{
			Trace: true, HashOnly: true, Reduce: mode.Reduce,
		})
		c.Runs = append(c.Runs, ModelRun{Mode: mode, Result: res})
	}
	return c, nil
}

// Check validates the soundness obligations of every reduced run
// against the full run: the same verdict (a violation is found iff the
// full exploration finds one), no more visited states, and — wherever a
// violation is reported, including by the full run — a counterexample
// that replays through the unreduced transition relation.
func (c *ModelComparison) Check() error {
	if c.Full.Violation != nil {
		if err := VerifyReplay(c.Model, c.Full.Violation, c.Checks); err != nil {
			return fmt.Errorf("full: %w", err)
		}
	}
	for _, r := range c.Runs {
		if gotViol, wantViol := r.Result.Violation != nil, c.Full.Violation != nil; gotViol != wantViol {
			return fmt.Errorf("%s: verdict differs from full exploration: violation %v vs %v",
				r.Mode.Name, r.Result.Violation, c.Full.Violation)
		}
		if r.Result.States > c.Full.States {
			return fmt.Errorf("%s: visited %d states, more than the full run's %d",
				r.Mode.Name, r.Result.States, c.Full.States)
		}
		if r.Result.Violation != nil {
			if err := VerifyReplay(c.Model, r.Result.Violation, c.Checks); err != nil {
				return fmt.Errorf("%s: %w", r.Mode.Name, err)
			}
		}
	}
	return nil
}

// VerifyReplay walks a counterexample step by step through the model's
// UNREDUCED transition relation: each recorded step must correspond to
// an enabled successor (matched by mover, label, and state
// fingerprint), and the final state must actually violate the reported
// invariant. This is the property that makes reduced counterexamples
// trustworthy — a trace found with interleavings pruned is still a
// concrete run of the original system.
func VerifyReplay(m *gcmodel.Model, v *explore.Violation, checks []invariant.Check) error {
	if v == nil {
		return nil
	}
	if len(v.Trace) == 0 {
		return fmt.Errorf("replay: violation carries no trace (explore.Options.Trace off?)")
	}
	cur := m.Initial()
	for i, step := range v.Trace {
		want := m.Fingerprint(step.State)
		found := false
		m.Successors(cur, func(next cimp.System[*gcmodel.Local], ev cimp.Event) {
			if found || ev.Proc != step.Ev.Proc || ev.Label != step.Ev.Label {
				return
			}
			if m.Fingerprint(next) == want {
				found = true
			}
		})
		if !found {
			return fmt.Errorf("replay: step %d/%d (proc %d %q) has no matching successor in the unreduced relation",
				i+1, len(v.Trace), step.Ev.Proc, step.Ev.Label)
		}
		cur = step.State
	}
	if got := m.Fingerprint(cur); got != m.Fingerprint(v.State) {
		return fmt.Errorf("replay: trace ends at a state other than the recorded violating state")
	}
	view := invariant.NewView(gcmodel.Global{Model: m, State: v.State})
	for _, c := range checks {
		if c.Name == v.Invariant {
			if err := c.Pred(view); err == nil {
				return fmt.Errorf("replay: final state does not violate %s", v.Invariant)
			}
			return nil
		}
	}
	return fmt.Errorf("replay: reported invariant %q is not in the check battery", v.Invariant)
}
