package analysis_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cimp"
	"repro/internal/core"
	"repro/internal/gcmodel"
)

// TestValidatedExploreCapped runs bounded validated explorations over
// several presets: every taken transition is checked against the
// declared effect footprint, and every nominated ample step is run
// against every other enabled step.
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
// partial-order reduction: the ample-step check must hold on the reduced
// visited set too.
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

// TestValidatedExploreReducedTwoMutator exhausts the reduced two-mutator
// preset with validation on: the counts are the unvalidated ones, and
// the ample-step check ran at exactly the states where the reduction
// took an ample step.
func TestValidatedExploreReducedTwoMutator(t *testing.T) {
	if raceEnabled {
		t.Skip("full exploration skipped under -race")
	}
	if testing.Short() {
		t.Skip("model checking is slow")
	}
	res, err := core.Verify(core.TwoMutatorConfig(), core.VerifyOptions{Reduce: true, ValidateEffects: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds() {
		t.Fatalf("violation:\n%s", res.RenderViolation())
	}
	if res.States != 849_910 || res.Transitions != 2_060_515 || res.Depth != 342 {
		t.Fatalf("states=%d transitions=%d depth=%d, want 849910/2060515/342", res.States, res.Transitions, res.Depth)
	}
	if got := res.Effects.AmpleChecked(); got != int64(res.AmpleStates) || got == 0 {
		t.Fatalf("ample check ran at %d states, reduction took an ample step at %d", got, res.AmpleStates)
	}
}

// walk visits m's states breadth-first from the initial state until it
// has seen max states or visit returns false.
func walk(m *gcmodel.Model, max int, visit func(cimp.System[*gcmodel.Local]) bool) {
	seen := map[string]bool{m.Fingerprint(m.Initial()): true}
	queue := []cimp.System[*gcmodel.Local]{m.Initial()}
	for len(queue) > 0 && len(seen) < max {
		st := queue[0]
		queue = queue[1:]
		if !visit(st) {
			return
		}
		m.Successors(st, func(n cimp.System[*gcmodel.Local], _ cimp.Event) {
			if f := m.Fingerprint(n); !seen[f] {
				seen[f] = true
				queue = append(queue, n)
			}
		})
	}
}

// TestAmpleCheckFromInitial walks every preset from its initial state
// (which nominates nothing) and runs the ample-step check at each state
// until it has executed a hundred nominations.
func TestAmpleCheckFromInitial(t *testing.T) {
	for _, name := range core.PresetNames() {
		cfg, err := core.PresetConfig(name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := gcmodel.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		v, err := analysis.NewValidator(m)
		if err != nil {
			t.Fatal(err)
		}
		walk(m, 20_000, func(st cimp.System[*gcmodel.Local]) bool {
			if err := v.CheckState(st); err != nil {
				t.Errorf("%s: %v", name, err)
				return false
			}
			return v.AmpleChecked() < 100
		})
		if v.AmpleChecked() < 100 {
			t.Errorf("%s: %d nominations within the walk, want 100", name, v.AmpleChecked())
		}
	}
}

// unsoundNominators propose steps that gcmodel never nominates, each
// with the reason CheckAmple must refuse it for. A nominator fires only
// on a process whose sole pending action is a request of its shape.
var unsoundNominators = []struct {
	name     string
	cfg      gcmodel.Config
	want     error
	mentions string // a label the refusal must name
	nominate func(s *gcmodel.SysLocal, r gcmodel.Req) bool
}{
	{"mutator-control-read", core.TinyConfig(), analysis.ErrAmpleOrdersDiffer, "sys-dequeue-write-buffer",
		func(s *gcmodel.SysLocal, r gcmodel.Req) bool {
			return r.P != gcmodel.GCPID && r.Kind == gcmodel.RRead &&
				analysis.ClassOf(r.Loc.Kind)&analysis.ClassControl != 0 && (s.Lock == -1 || s.Lock == r.P)
		}},
	{"lock-acquire", core.TwoMutatorConfig(), analysis.ErrAmpleDisables, "_load",
		func(s *gcmodel.SysLocal, r gcmodel.Req) bool {
			return r.P != gcmodel.GCPID && r.Kind == gcmodel.RLock && s.Lock == -1
		}},
	{"fence-with-buffered-stores", core.TinyConfig(), analysis.ErrAmpleNotSingle, "mfence",
		func(s *gcmodel.SysLocal, r gcmodel.Req) bool {
			return r.Kind == gcmodel.RMFence && len(s.Bufs[r.P]) != 0
		}},
	{"control-word-write", core.TinyConfig(), analysis.ErrAmpleObserved, "gc_write_",
		func(s *gcmodel.SysLocal, r gcmodel.Req) bool {
			return r.Kind == gcmodel.RWrite && analysis.ClassOf(r.Loc.Kind)&analysis.ClassControl != 0
		}},
}

// TestAmpleCheckRefusesUnsoundSteps is the negative control: each
// unsound nominator must be refused, for its own reason, somewhere in a
// bounded walk of its configuration.
func TestAmpleCheckRefusesUnsoundSteps(t *testing.T) {
	for _, c := range unsoundNominators {
		t.Run(c.name, func(t *testing.T) {
			m, err := gcmodel.Build(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			v, err := analysis.NewValidator(m)
			if err != nil {
				t.Fatal(err)
			}
			var refused error
			walk(m, 200_000, func(st cimp.System[*gcmodel.Local]) bool {
				sys := st.Procs[len(st.Procs)-1].Data.Sys
				for p := 0; p < len(st.Procs)-1 && refused == nil; p++ {
					r, alpha, ok := cimp.SoleRequest(st.Procs[p])
					if req, isReq := alpha.(gcmodel.Req); ok && isReq && c.nominate(sys, req) {
						refused = v.CheckAmple(st, gcmodel.Ample{Proc: cimp.PID(p), Label: r.Label(), OK: true})
					}
				}
				return refused == nil
			})
			if refused == nil {
				t.Fatalf("no refusal after %d nominations", v.AmpleChecked())
			}
			if !errors.Is(refused, c.want) || !strings.Contains(refused.Error(), c.mentions) {
				t.Fatalf("refused with %q, want %q naming %q", refused, c.want, c.mentions)
			}
			t.Logf("refused after %d nominations: %v", v.AmpleChecked(), refused)
		})
	}
}
