package explore

import (
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/gcmodel"
	"repro/internal/invariant"
)

// tinySlab makes every worker slab of the test hold n configurations per
// chunk.
func tinySlab(t *testing.T, n int) {
	t.Helper()
	old := slabChunk
	slabChunk = n
	t.Cleanup(func() { slabChunk = old })
}

// rehash is a Visitor that fingerprints every state it is shown, inside
// the call, and counts those whose hash is not the one the engine gave.
type rehash struct {
	m                   *gcmodel.Model
	edges, nodes, wrong atomic.Int64
}

func (r *rehash) Edge(e Edge) error {
	r.edges.Add(1)
	if r.m.FingerprintHash(e.From) != e.FromHash {
		r.wrong.Add(1)
	}
	return nil
}

func (r *rehash) State(n Node) error {
	r.nodes.Add(1)
	if r.m.FingerprintHash(n.State) != n.Hash {
		r.wrong.Add(1)
	}
	return nil
}

func (*rehash) Checks() bool { return false }

// TestFrontierStatesMatchTheirHashes holds the slab rotation to the
// Visitor contract: with chunks so small that every layer recycles some,
// each frontier state a visitor is shown — an edge's source, a new state —
// still fingerprints to its hash during the call, and the run's counts are
// those of a run with full-size chunks. A rotation that frees a chunk
// still backing the layer being expanded, or hands one out twice, breaks
// both. The depth bound stops the run short of the state cap, so that its
// counts are exact at every worker count.
func TestFrontierStatesMatchTheirHashes(t *testing.T) {
	m := mustBuild(t, baseCfg())
	opt := Options{MaxStates: 20_000, MaxDepth: 28, HashOnly: true}
	workers := []int{1, 2, 4}
	var want []Result
	for _, w := range workers {
		opt.Workers = w
		res := Run(m, invariant.Safety(), opt)
		if res.Stopped != StopMaxDepth {
			t.Fatalf("workers=%d: reference run stopped with %q, want the depth bound", w, res.Stopped)
		}
		want = append(want, res)
	}
	tinySlab(t, 8)
	for i, w := range workers {
		r := &rehash{m: m}
		opt.Workers, opt.Visitors = w, []Visitor{r}
		got := Run(m, invariant.Safety(), opt)
		if n := r.wrong.Load(); n != 0 {
			t.Errorf("workers=%d: %d of %d edges and %d states did not fingerprint to their hash", w, n, r.edges.Load(), r.nodes.Load())
		}
		if ref := want[i]; got.States != ref.States || got.Transitions != ref.Transitions || got.Depth != ref.Depth || got.Stopped != ref.Stopped {
			t.Errorf("workers=%d: 8-configuration chunks give %d states, %d transitions, depth %d (%q); full chunks %d, %d, %d (%q)",
				w, got.States, got.Transitions, got.Depth, got.Stopped, ref.States, ref.Transitions, ref.Depth, ref.Stopped)
		}
		if r.edges.Load() != int64(got.Transitions) || r.nodes.Load() != int64(got.States) {
			t.Errorf("workers=%d: the visitor saw %d edges and %d states of %d and %d", w, r.edges.Load(), r.nodes.Load(), got.Transitions, got.States)
		}
	}
	t.Logf("%d states, %d transitions to depth %d", want[0].States, want[0].Transitions, want[0].Depth)
}

// TestWarmRunAllocatesPerLayer is the search's allocation gate: once the
// configuration table is warm, a run allocates per chunk, per layer and
// per table segment, not per state. The model is explored twice; the
// second run, whose configurations the table holds and which retires none,
// must make at most half a heap allocation per new state.
func TestWarmRunAllocatesPerLayer(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	m := mustBuild(t, baseCfg())
	checks := invariant.Safety()
	for _, w := range []int{1, 2} {
		opt := Options{Workers: w, MaxStates: 20_000, HashOnly: true}
		Run(m, checks, opt)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := Run(m, checks, opt)
		runtime.ReadMemStats(&after)
		if res.Memo.Retired != 0 {
			t.Fatalf("workers=%d: the warm run retired %d configuration table(s)", w, res.Memo.Retired)
		}
		per := float64(after.Mallocs-before.Mallocs) / float64(res.States)
		t.Logf("workers=%d: %.3f allocations per new state over %d states", w, per, res.States)
		if per > 0.5 {
			t.Fatalf("workers=%d: the warm run makes %.2f heap allocations per new state, budget is 0.5", w, per)
		}
	}
}
