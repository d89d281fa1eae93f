package explore

import (
	"strings"
	"testing"

	"repro/internal/gcmodel"
	"repro/internal/heap"
	"repro/internal/invariant"
)

// baseCfg is the small configuration used by the ablation hunts: one
// object h (ref 0) pointing at x (ref 1), with only h rooted.
func baseCfg() gcmodel.Config {
	return gcmodel.Config{
		NMutators: 1,
		NRefs:     2,
		NFields:   1,
		MaxBuf:    2,
		OpBudget:  2,
		InitObjects: map[heap.Ref][]heap.Ref{
			0: {1},
			1: {heap.NilRef},
		},
		InitRoots:     []heap.RefSet{heap.SetOf(0)},
		AllowNilStore: true,
		DisableAlloc:  true,
	}
}

// skipDeepHuntUnderRace skips multi-million-state explorations when the
// race detector is on: they would take tens of minutes at the detector's
// slowdown, and the parallel checker's concurrency is already fully
// exercised under -race by the quicker multi-worker tests
// (TestDeterministicAcrossWorkers, TestShortestCounterexampleAcrossWorkers,
// TestCollisionAudit, TestSafeModelShortExhaust, ...).
func skipDeepHuntUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("deep state-space hunt skipped under -race")
	}
}

func mustBuild(t *testing.T, cfg gcmodel.Config) *gcmodel.Model {
	t.Helper()
	m, err := gcmodel.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// findViolation explores until a violation of the given invariants turns
// up, failing the test if none does within the cap.
func findViolation(t *testing.T, cfg gcmodel.Config, checks []invariant.Check, cap int) *Violation {
	t.Helper()
	m := mustBuild(t, cfg)
	res := Run(m, checks, Options{Trace: true, MaxStates: cap, HashOnly: true, Workers: 2})
	if res.Violation == nil {
		t.Fatalf("no violation found in %d states (complete=%v) — ablation should be unsafe",
			res.States, res.Complete)
	}
	t.Logf("found after %d states at depth %d:\n%s",
		res.States, res.Violation.Depth, res.Violation.Render(m))
	return res.Violation
}

// TestAblationNoDeletionBarrier (E11): removing the deletion barrier
// breaks the headline safety property — the checker produces a concrete
// interleaving in which a reachable object is freed.
func TestAblationNoDeletionBarrier(t *testing.T) {
	skipDeepHuntUnderRace(t)
	cfg := baseCfg()
	cfg.Drop = gcmodel.AblationDrop("no_deletion_barrier", cfg.NMutators)
	v := findViolation(t, cfg, invariant.Safety(), 2_000_000)
	if v.Invariant != "valid_refs_inv" {
		t.Fatalf("violated %s, want valid_refs_inv", v.Invariant)
	}
	if len(v.Trace) == 0 {
		t.Fatal("no counterexample trace recorded")
	}
}

// TestAblationNoDeletionBarrierAuxiliaryFailsFirst: with the full
// invariant battery, the snapshot invariant (or another auxiliary) is
// violated strictly before the headline property — the proof structure
// of the paper made observable.
func TestAblationNoDeletionBarrierAuxiliaryFailsFirst(t *testing.T) {
	cfg := baseCfg()
	cfg.Drop = gcmodel.AblationDrop("no_deletion_barrier", cfg.NMutators)
	v := findViolation(t, cfg, invariant.All(), 2_000_000)
	if v.Invariant == "valid_refs_inv" {
		t.Fatalf("headline property failed before any auxiliary invariant")
	}
}

// TestAblationAllocWhite (E11): allocating with the unmarked sense during
// marking loses freshly allocated objects. On three refs the proof's
// auxiliary invariants refute the ablation within a few hundred thousand
// states. The headline consequence (a white-allocated object freed while
// rooted) is pinned by exhaustive search on two refs, at depth 121
// (diffcheck.TestAblationAllocWhiteHeadline), and deterministically at
// runtime scale (gcrt.TestLostObjectWithAllocWhite).
func TestAblationAllocWhite(t *testing.T) {
	skipDeepHuntUnderRace(t)
	cfg := baseCfg()
	cfg.AllocWhite = true
	cfg.DisableAlloc = false
	cfg.NRefs = 3
	v := findViolation(t, cfg, invariant.All(), 2_000_000)
	t.Logf("allocate-white refuted by %s", v.Invariant)
}

// TestAblationElideMarkHandshake (E12 counterpart): eliding the round-4
// handshake (after phase ← Mark and f_A ← f_M) lets the collector sample
// roots while a mutator still allocates white or runs without barriers —
// the auxiliary invariants catch the resulting windows.
func TestAblationElideMarkHandshake(t *testing.T) {
	skipDeepHuntUnderRace(t)
	cfg := baseCfg()
	cfg.Drop = gcmodel.AblationDrop("elide_hs4", cfg.NMutators)
	cfg.DisableAlloc = false
	cfg.NRefs = 3
	m := mustBuild(t, cfg)
	res := Run(m, invariant.All(), Options{Trace: true, MaxStates: 2_000_000})
	if res.Violation == nil {
		// Not necessarily unsafe — record the outcome; the headline
		// property may still hold (cf. the paper's §4 observation that
		// some initialization handshakes are removable).
		t.Logf("no violation in %d states (complete=%v): round-4 elision not refuted at this size",
			res.States, res.Complete)
		return
	}
	t.Logf("violation: %s", res.Violation.Error())
}

// TestCounterexampleTraceIsWellFormed: the deletion-barrier
// counterexample's trace must replay from the initial state: each step's
// event names a process, and the final state exhibits the dangling
// reference the violation reports.
func TestCounterexampleTraceIsWellFormed(t *testing.T) {
	skipDeepHuntUnderRace(t)
	cfg := baseCfg()
	cfg.Drop = gcmodel.AblationDrop("no_deletion_barrier", cfg.NMutators)
	m := mustBuild(t, cfg)
	res := Run(m, invariant.Safety(), Options{Trace: true, MaxStates: 2_000_000})
	if res.Violation == nil {
		t.Fatal("expected a violation")
	}
	if got := len(res.Violation.Trace); got != res.Violation.Depth {
		t.Fatalf("trace length %d != violation depth %d", got, res.Violation.Depth)
	}
	rendered := res.Violation.Render(m)
	if !strings.Contains(rendered, "counterexample") {
		t.Fatal("rendered violation lacks the trace")
	}
	// The final state must actually violate valid_refs_inv.
	last := res.Violation.Trace[len(res.Violation.Trace)-1].State
	g := gcmodel.Global{Model: m, State: last}
	if err := invariant.ValidRefs.Pred(invariant.NewView(g)); err == nil {
		t.Fatal("final trace state does not violate valid_refs_inv")
	}
}

// TestSafeModelShortExhaust: the un-ablated model with a minimal workload
// (stores only, budget 1) is exhaustively safe — a fast companion to the
// full smoke test.
func TestSafeModelShortExhaust(t *testing.T) {
	cfg := baseCfg()
	cfg.OpBudget = 1
	cfg.DisableLoad = true
	cfg.DisableDiscard = true
	cfg.MaxBuf = 1
	m := mustBuild(t, cfg)
	res := Run(m, invariant.All(), Options{MaxStates: 1_500_000, HashOnly: true, Workers: 4, Shards: 16})
	if res.Violation != nil {
		t.Fatalf("violation in safe model:\n%s", res.Violation.Render(m))
	}
	if !res.Complete {
		t.Fatalf("not exhausted: %d states", res.States)
	}
	if res.Deadlocks > 0 {
		t.Fatalf("%d deadlocks", res.Deadlocks)
	}
	t.Logf("states=%d depth=%d elapsed=%v", res.States, res.Depth, res.Elapsed)
}

// TestFusionAgreesWithUnfusedOnViolation: the register-step fusion
// reduction must not change verdicts — the unfused semantics finds the
// same deletion-barrier violation.
func TestFusionAgreesWithUnfusedOnViolation(t *testing.T) {
	skipDeepHuntUnderRace(t)
	cfg := baseCfg()
	cfg.Drop = gcmodel.AblationDrop("no_deletion_barrier", cfg.NMutators)
	cfg.DisableMFence = true
	m := mustBuild(t, cfg)

	fused := Run(m, invariant.Safety(), Options{MaxStates: 2_000_000})
	if fused.Violation == nil {
		t.Fatal("fused run found no violation")
	}

	unfusedInit := m.Initial()
	unfusedInit.DisableFusion = true
	res := RunFrom(m, unfusedInit, invariant.Safety(), Options{MaxStates: 4_000_000})
	if res.Violation == nil {
		t.Fatal("unfused run found no violation")
	}
	if res.Violation.Invariant != fused.Violation.Invariant {
		t.Fatalf("verdicts differ: %s vs %s", res.Violation.Invariant, fused.Violation.Invariant)
	}
}

// TestObservationInsertionGate (E12b): the paper's §4 conjecture — the
// insertion barrier can be dropped across the mark loop in exchange for
// a thread-local branch — holds exhaustively on the tiny configuration.
func TestObservationInsertionGate(t *testing.T) {
	skipDeepHuntUnderRace(t)
	if testing.Short() {
		t.Skip("exhaustive run")
	}
	cfg := baseCfg()
	cfg.InsertionBarrierOnlyBeforeRootsDone = true
	m := mustBuild(t, cfg)
	res := Run(m, invariant.Safety(), Options{MaxStates: 6_000_000})
	if res.Violation != nil {
		t.Fatalf("§4 conjecture refuted:\n%s", res.Violation.Render(m))
	}
	if !res.Complete {
		t.Fatalf("not exhausted: %d states", res.States)
	}
	t.Logf("conjecture holds on %d states (depth %d)", res.States, res.Depth)
}

// TestSCOracleShrinksStateSpace (E13, model level): under the SC memory
// oracle the same configuration is safe and has strictly fewer reachable
// states — the store buffers are what the TSO proof pays for.
func TestSCOracleShrinksStateSpace(t *testing.T) {
	skipDeepHuntUnderRace(t)
	if testing.Short() {
		t.Skip("exhaustive run")
	}
	cfg := baseCfg()
	cfg.OpBudget = 1
	cfg.DisableLoad = true
	cfg.DisableDiscard = true
	cfg.MaxBuf = 1

	mTSO := mustBuild(t, cfg)
	resTSO := Run(mTSO, invariant.All(), Options{MaxStates: 3_000_000})
	if resTSO.Violation != nil || !resTSO.Complete {
		t.Fatalf("TSO run: violation=%v complete=%v", resTSO.Violation, resTSO.Complete)
	}

	cfg.SCMemory = true
	mSC := mustBuild(t, cfg)
	resSC := Run(mSC, invariant.All(), Options{MaxStates: 3_000_000})
	if resSC.Violation != nil || !resSC.Complete {
		t.Fatalf("SC run: violation=%v complete=%v", resSC.Violation, resSC.Complete)
	}
	if resSC.States >= resTSO.States {
		t.Fatalf("SC states %d not smaller than TSO states %d", resSC.States, resTSO.States)
	}
	t.Logf("TSO states=%d, SC states=%d (%.1f%%)",
		resTSO.States, resSC.States, 100*float64(resSC.States)/float64(resTSO.States))
}
