package explore

import (
	"fmt"
	"testing"

	"repro/internal/gcmodel"
	"repro/internal/heap"
	"repro/internal/invariant"
)

// fingerprintOracle re-encodes every newly visited state by the
// definition of the canonical fingerprint — per process, the frame stack
// then the data state — without the configuration table's cached
// segments, and requires the hash the engine keyed the state by.
type fingerprintOracle struct{ m *gcmodel.Model }

func (fingerprintOracle) Edge(Edge) error { return nil }
func (fingerprintOracle) Checks() bool    { return true }
func (o fingerprintOracle) State(n Node) error {
	var buf [256]byte
	b := buf[:0]
	for _, p := range n.State.Procs {
		b = p.Data.AppendFingerprint(o.m.Index.AppendStack(b, p.Stack))
	}
	if h := gcmodel.Hash64(b); h != n.Hash {
		return fmt.Errorf("state keyed by %016x, its encoding hashes to %016x", n.Hash, h)
	}
	return nil
}

// TestSmokeTinyConfig model-checks the smallest interesting configuration
// — the headline run — and requires every invariant to hold on its full
// reachable state space, the headline counts, and every visited-set key to
// be the hash of the state's defining encoding.
func TestSmokeTinyConfig(t *testing.T) {
	skipDeepHuntUnderRace(t)
	if testing.Short() {
		t.Skip("model checking is slow")
	}
	m, err := gcmodel.Build(gcmodel.Config{
		NMutators: 1,
		NRefs:     2,
		NFields:   1,
		MaxBuf:    2,
		InitObjects: map[heap.Ref][]heap.Ref{
			0: {1},
			1: {heap.NilRef},
		},
		InitRoots:     []heap.RefSet{heap.SetOf(0)},
		AllowNilStore: true,
		DisableAlloc:  true, // keep the smoke test small
		OpBudget:      2,    // bounded-context reduction
	})
	if err != nil {
		t.Fatal(err)
	}
	res := Run(m, invariant.All(), Options{Trace: true, MaxStates: 3_000_000, HashOnly: true,
		Visitors: []Visitor{fingerprintOracle{m}}})
	t.Logf("states=%d transitions=%d depth=%d complete=%v deadlocks=%d elapsed=%v",
		res.States, res.Transitions, res.Depth, res.Complete, res.Deadlocks, res.Elapsed)
	if res.Violation != nil {
		t.Fatalf("violation:\n%s", res.Violation.Render(m))
	}
	if !res.Complete {
		t.Fatalf("state space not exhausted within cap")
	}
	if res.Deadlocks > 0 {
		t.Fatalf("%d deadlocked states", res.Deadlocks)
	}
	if res.States != 997_438 || res.Transitions != 2_795_677 || res.Depth != 258 {
		t.Fatalf("headline counts moved: %d states, %d transitions, depth %d; want 997438, 2795677, 258",
			res.States, res.Transitions, res.Depth)
	}
	t.Logf("configuration table: %+v", res.Memo)
}
