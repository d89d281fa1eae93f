// Package diffcheck is the differential-testing harness that tests the
// collector-model checker's partial-order reduction (explore.Options.Reduce)
// for soundness in practice. At states with a provably commuting "safe"
// buffer-local step, the reduced search pursues only that step.
//
// The reduction comes with a pen-and-paper commutation argument (see
// gcmodel/reduce.go and DESIGN.md), but the argument is subtle — an
// earlier draft wrongly classified store-forwarded reads as safe — so
// this package re-derives the soundness claim empirically on every run
// of the test suite, over a corpus of collector-model configurations,
// safe and ablated:
//
//   - the full and the reduced exploration must reach the same verdict;
//   - the reduced run must never visit more states than the full run;
//     and
//   - every counterexample, full or reduced, must replay step by step
//     through the UNREDUCED transition relation and end in a state that
//     violates the reported invariant.
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
)

// ModelComparison holds one full and one reduced exploration of a
// configuration, both over the same built model.
type ModelComparison struct {
	Model   *gcmodel.Model
	Checks  []invariant.Check
	Full    explore.Result
	Reduced explore.Result
}

// CompareModel builds cfg once and explores it twice, in full and under
// explore.Options.Reduce. Both runs are uncapped (capped runs are not
// comparable: a reduction may defer work past an arbitrary state bound)
// and record counterexample traces. Use Check to validate the results.
func CompareModel(cfg gcmodel.Config) (*ModelComparison, error) {
	m, err := gcmodel.Build(cfg)
	if err != nil {
		return nil, fmt.Errorf("diffcheck: %w", err)
	}
	c := &ModelComparison{Model: m, Checks: invariant.All()}
	c.Full = explore.Run(m, c.Checks, explore.Options{Trace: true, HashOnly: true})
	c.Reduced = explore.Run(m, c.Checks, explore.Options{Trace: true, HashOnly: true, Reduce: true})
	return c, nil
}

// Check validates the soundness obligations of the reduced run against
// the full run: the same verdict (a violation is found iff the full
// exploration finds one), no more visited states, and — wherever a
// violation is reported, including by the full run — a counterexample
// that replays through the unreduced transition relation.
func (c *ModelComparison) Check() error {
	if c.Full.Violation != nil {
		if err := VerifyReplay(c.Model, c.Full.Violation, c.Checks); err != nil {
			return fmt.Errorf("full: %w", err)
		}
	}
	r := c.Reduced
	if gotViol, wantViol := r.Violation != nil, c.Full.Violation != nil; gotViol != wantViol {
		return fmt.Errorf("reduced: verdict differs from full exploration: violation %v vs %v",
			r.Violation, c.Full.Violation)
	}
	if r.States > c.Full.States {
		return fmt.Errorf("reduced: visited %d states, more than the full run's %d",
			r.States, c.Full.States)
	}
	if r.Violation != nil {
		if err := VerifyReplay(c.Model, r.Violation, c.Checks); err != nil {
			return fmt.Errorf("reduced: %w", err)
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
