package diffcheck

import (
	"testing"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/gcmodel"
	"repro/internal/invariant"
)

// tinyAlloc is the tiny configuration with allocation enabled: the
// spec {"preset":"alloc","bounds":{"refs":2}}.
func tinyAlloc(t *testing.T) gcmodel.Config {
	refs := 2
	cfg, _, err := core.JobSpec{Preset: "alloc", Bounds: core.Bounds{Refs: &refs}}.Build()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// pinnedViolation explores cfg against checks and requires the first
// violation to be of want, at the given depth after the given number of
// states, with a trace that replays through the unreduced relation.
func pinnedViolation(t *testing.T, cfg gcmodel.Config, checks []invariant.Check, want string, states, depth int) {
	t.Helper()
	m, err := gcmodel.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := explore.Run(m, checks, explore.Options{Trace: true, HashOnly: true, MaxStates: 3_000_000})
	if res.Violation == nil {
		t.Fatalf("no violation in %d states (complete=%v)", res.States, res.Complete)
	}
	if res.Violation.Invariant != want || res.Violation.Depth != depth || res.States != states {
		t.Fatalf("%s at depth %d after %d states, want %s at depth %d after %d",
			res.Violation.Invariant, res.Violation.Depth, res.States, want, depth, states)
	}
	if err := VerifyReplay(m, res.Violation, checks); err != nil {
		t.Fatal(err)
	}
}

// TestAblationNoInsertionBarrierWithAllocation (E11): with allocation
// enabled (tinyAlloc with no_insertion_barrier and headline_only),
// removing the insertion barrier loses a reachable object, under TSO
// and under the SC oracle. With allocation disabled the same ablation
// verifies on these bounds.
func TestAblationNoInsertionBarrierWithAllocation(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("deep hunt")
	}
	for _, c := range []struct {
		sc            bool
		states, depth int
	}{{false, 725_504, 131}, {true, 223_327, 120}} {
		cfg := tinyAlloc(t)
		cfg.Drop = gcmodel.AblationDrop("no_insertion_barrier", cfg.NMutators)
		cfg.SCMemory = c.sc
		pinnedViolation(t, cfg, invariant.Safety(), "valid_refs_inv", c.states, c.depth)
	}
}

// TestAblationAllocWhiteHeadline (E11): with allocation enabled
// (tinyAlloc with alloc_white and headline_only), allocating white
// during marking loses a reachable object, under TSO and under the SC
// oracle.
func TestAblationAllocWhiteHeadline(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("deep hunt")
	}
	for _, c := range []struct {
		sc            bool
		states, depth int
	}{{false, 1_094_475, 121}, {true, 369_506, 111}} {
		cfg := tinyAlloc(t)
		cfg.AllocWhite = true
		cfg.SCMemory = c.sc
		pinnedViolation(t, cfg, invariant.Safety(), "valid_refs_inv", c.states, c.depth)
	}
}

// TestAblationElideHS3FullBattery (E12): with allocation enabled
// (tinyAlloc with elide_hs3), skipping handshake round 3 violates
// mutator_phase_inv at depth 81, with the op budget at 2 and unbounded.
func TestAblationElideHS3FullBattery(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("deep hunt")
	}
	for _, c := range []struct{ budget, states int }{{2, 333_509}, {0, 2_023_453}} {
		cfg := tinyAlloc(t)
		cfg.Drop = gcmodel.AblationDrop("elide_hs3", cfg.NMutators)
		cfg.OpBudget = c.budget
		pinnedViolation(t, cfg, invariant.All(), "mutator_phase_inv", c.states, 81)
	}
}

// TestFenceDrops (E12): single and paired handshake fences dropped
// through Config.Drop on tiny. The collector's fence before signalling
// round 3 breaks the full battery on its own. The mutator's accept and
// finish fences together break the headline property. The collector's
// fence after round 2 can go under both batteries.
func TestFenceDrops(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("deep hunt")
	}
	tiny := func(drop ...string) gcmodel.Config {
		cfg := core.TinyConfig()
		cfg.Drop = drop
		return cfg
	}
	pinnedViolation(t, tiny("gc_hs_init_mfence_init"), invariant.All(), "mutator_phase_inv", 31_283, 35)
	pinnedViolation(t, tiny("mut0_hs_mfence_accept", "mut0_hs_mfence_finish"), invariant.Safety(),
		"valid_refs_inv", 1_186_471, 55)
	m, err := gcmodel.Build(tiny("gc_hs_flip_mfence_done"))
	if err != nil {
		t.Fatal(err)
	}
	for _, checks := range [][]invariant.Check{invariant.Safety(), invariant.All()} {
		res := explore.Run(m, checks, explore.Options{HashOnly: true})
		if res.Violation != nil || !res.Complete || res.States != 988_244 || res.Transitions != 2_768_359 || res.Depth != 255 {
			t.Errorf("%d checks: violation %v, complete %v, %d / %d / %d, want verified 988244 / 2768359 / 255",
				len(checks), res.Violation != nil, res.Complete, res.States, res.Transitions, res.Depth)
		}
	}
}
