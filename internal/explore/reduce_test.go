package explore

import (
	"testing"

	"repro/internal/gcmodel"
	"repro/internal/heap"
	"repro/internal/invariant"
)

// symCfg is a two-mutator configuration with identical roots and only
// handshakes as heap-free work: small enough for uncapped exploration in
// milliseconds, yet exercising the ample filter over ragged handshakes.
func symCfg() gcmodel.Config {
	return gcmodel.Config{
		NMutators: 2,
		NRefs:     2,
		NFields:   1,
		MaxBuf:    1,
		OpBudget:  1,
		InitObjects: map[heap.Ref][]heap.Ref{
			0: {1},
			1: {heap.NilRef},
		},
		InitRoots:      []heap.RefSet{heap.SetOf(0), heap.SetOf(0)},
		AllowNilStore:  true,
		DisableAlloc:   true,
		DisableLoad:    true,
		DisableStore:   true,
		DisableDiscard: true,
		DisableMFence:  true,
	}
}

// TestReduceVerdictMatchesFull checks the basic soundness contract on a
// small uncapped run: the reduced exploration reaches the same verdict
// as the full one while visiting no more states. (Package diffcheck
// validates this across a whole corpus; this keeps a fast witness next
// to the checker itself.)
func TestReduceVerdictMatchesFull(t *testing.T) {
	m := mustBuild(t, symCfg())
	full := Run(m, invariant.All(), Options{Trace: true, HashOnly: true})
	if full.Violation != nil {
		t.Fatalf("base configuration should be safe: %v", full.Violation)
	}
	res := Run(m, invariant.All(), Options{Trace: true, HashOnly: true, Reduce: true})
	if res.Violation != nil {
		t.Errorf("reduce: spurious violation %v", res.Violation)
	}
	if res.States > full.States {
		t.Errorf("reduce: %d states exceeds full %d", res.States, full.States)
	}
}

// TestReduceDeterministicAcrossWorkers: the reduction is a function of
// the state, not the schedule, so every statistic of an uncapped run
// must be identical at any worker count.
func TestReduceDeterministicAcrossWorkers(t *testing.T) {
	m := mustBuild(t, symCfg())
	opt := Options{Trace: true, HashOnly: true, Reduce: true}
	opt.Workers = 1
	base := Run(m, invariant.All(), opt)
	for _, w := range []int{2, 4} {
		opt.Workers = w
		res := Run(m, invariant.All(), opt)
		if res.States != base.States || res.Transitions != base.Transitions ||
			res.Depth != base.Depth || res.AmpleStates != base.AmpleStates {
			t.Errorf("workers=%d: (states,transitions,depth,ample)=(%d,%d,%d,%d) differs from workers=1 (%d,%d,%d,%d)",
				w, res.States, res.Transitions, res.Depth, res.AmpleStates,
				base.States, base.Transitions, base.Depth, base.AmpleStates)
		}
		if (res.Violation == nil) != (base.Violation == nil) {
			t.Errorf("workers=%d: verdict differs from workers=1", w)
		}
	}
}

// TestReduceStillFindsAblationViolation: pruning interleavings must not
// hide the deletion-barrier bug.
func TestReduceStillFindsAblationViolation(t *testing.T) {
	cfg := baseCfg()
	cfg.OpBudget = 1
	cfg.MaxBuf = 1
	cfg.NoDeletionBarrier = true
	m := mustBuild(t, cfg)
	res := Run(m, invariant.All(), Options{Trace: true, HashOnly: true, Reduce: true})
	if res.Violation == nil {
		t.Fatalf("ablation violation lost under reduction (%d states, complete=%v)", res.States, res.Complete)
	}
	t.Logf("found %s at depth %d in %d states (ample %d)",
		res.Violation.Invariant, res.Violation.Depth, res.States, res.AmpleStates)
}
