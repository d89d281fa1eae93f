package liveness_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/gcmodel"
	"repro/internal/heap"
	"repro/internal/liveness"
)

// smallConfig is a handshake-centric configuration small enough for the
// full liveness check to run in milliseconds: one mutator, stores only,
// tight budget and buffer bound.
func smallConfig() gcmodel.Config {
	return gcmodel.Config{
		NMutators: 1,
		NRefs:     2,
		NFields:   1,
		MaxBuf:    1,
		OpBudget:  1,
		InitObjects: map[heap.Ref][]heap.Ref{
			0: {1},
			1: {heap.NilRef},
		},
		InitRoots:      []heap.RefSet{heap.SetOf(0)},
		AllowNilStore:  true,
		DisableAlloc:   true,
		DisableLoad:    true,
		DisableDiscard: true,
	}
}

func build(t *testing.T, cfg gcmodel.Config) *gcmodel.Model {
	t.Helper()
	m, err := gcmodel.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCleanModelSatisfiesAllProperties(t *testing.T) {
	m := build(t, smallConfig())
	res, err := liveness.Check(m, liveness.Options{}, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("uncapped run not complete")
	}
	if !res.Holds() {
		for _, p := range res.Violations() {
			t.Errorf("property %s violated on the clean model:\n%s",
				p.Name, p.Counterexample.Render(m))
		}
	}
	if len(res.Properties) != 4 { // hs-ack-m0, gc-sweep, buf-drain-gc, buf-drain-m0
		t.Fatalf("expected 4 properties, got %d", len(res.Properties))
	}
}

func TestMuteHandshakeViolatesAcknowledgement(t *testing.T) {
	cfg := smallConfig()
	cfg.Drop = gcmodel.AblationDrop("mute_handshake", cfg.NMutators)
	m := build(t, cfg)
	res, err := liveness.Check(m, liveness.Options{}, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]liveness.PropertyResult)
	for _, p := range res.Properties {
		byName[p.Name] = p
	}
	if byName["hs-ack-m0"].Holds {
		t.Error("hs-ack-m0 should be violated when mutators never poll")
	}
	if byName["gc-sweep"].Holds {
		t.Error("gc-sweep should be violated when the collector can never finish a handshake")
	}
	for _, p := range res.Violations() {
		if p.Counterexample == nil {
			t.Fatalf("%s: violated without a counterexample", p.Name)
		}
		if err := liveness.VerifyLasso(m, p.Counterexample); err != nil {
			t.Errorf("%s: lasso does not replay: %v", p.Name, err)
		}
	}
}

func TestNoDequeueViolatesBufferDrain(t *testing.T) {
	cfg := smallConfig()
	cfg.Drop = gcmodel.AblationDrop("no_dequeue", cfg.NMutators)
	m := build(t, cfg)
	res, err := liveness.Check(m, liveness.Options{}, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	violated := make(map[string]bool)
	for _, p := range res.Violations() {
		violated[p.Name] = true
		if err := liveness.VerifyLasso(m, p.Counterexample); err != nil {
			t.Errorf("%s: lasso does not replay: %v", p.Name, err)
		}
	}
	if !violated["buf-drain-gc"] {
		t.Error("buf-drain-gc should be violated when the system never dequeues")
	}
	if violated["hs-ack-m0"] {
		t.Error("hs-ack-m0 should still hold: handshake state is not subject to TSO")
	}
}

// TestLassoReplaysThroughUnreducedRelation is the liveness analogue of
// diffcheck's replay validation: the recorded stem must be a genuine
// run of the unreduced transition relation, the cycle must return
// exactly to the cycle head, and tampering with either must be caught.
func TestLassoReplaysThroughUnreducedRelation(t *testing.T) {
	cfg := smallConfig()
	cfg.Drop = gcmodel.AblationDrop("mute_handshake", cfg.NMutators)
	m := build(t, cfg)
	res, err := liveness.Check(m, liveness.Options{}, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	vs := res.Violations()
	if len(vs) == 0 {
		t.Fatal("expected a violation to replay")
	}
	l := vs[0].Counterexample

	// The lasso replays through the model's own transition relation
	// (states carry per-Build command identity, so replay uses the same
	// model instance — as diffcheck.VerifyReplay does for safety).
	if err := liveness.VerifyLasso(m, l); err != nil {
		t.Fatalf("lasso does not replay: %v", err)
	}

	// The head state is the stem's last state and the cycle's last
	// state — the defining lasso shape.
	head := l.Head(m)
	last := l.Cycle[len(l.Cycle)-1].State
	if m.Fingerprint(head) != m.Fingerprint(last) {
		t.Error("cycle does not end at the lasso head")
	}

	// Tampering with the cycle must be detected.
	if len(l.Cycle) > 0 {
		broken := &liveness.Lasso{Stem: l.Stem, Cycle: l.Cycle[:len(l.Cycle)-1]}
		if err := liveness.VerifyLasso(m, broken); err == nil {
			t.Error("truncated cycle still verifies")
		}
	}
	if len(l.Stem) > 1 {
		broken := &liveness.Lasso{Stem: l.Stem[1:], Cycle: l.Cycle}
		if err := liveness.VerifyLasso(m, broken); err == nil {
			t.Error("truncated stem still verifies")
		}
	}
	empty := &liveness.Lasso{Stem: l.Stem}
	if err := liveness.VerifyLasso(m, empty); err == nil {
		t.Error("empty cycle still verifies")
	}

	// Rendering mentions the lasso shape.
	out := l.Render(m)
	if !strings.Contains(out, "cycle") || !strings.Contains(out, "repeat") {
		t.Errorf("render lacks cycle marker:\n%s", out)
	}
}

func TestByNameSelectsSubset(t *testing.T) {
	m := build(t, smallConfig())
	props, err := liveness.ByName(m, []string{"gc-sweep", "hs-ack-m0"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := liveness.Check(m, liveness.Options{Properties: props}, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Properties) != 2 {
		t.Fatalf("expected 2 verdicts, got %d", len(res.Properties))
	}
	if res.Properties[0].Name != "gc-sweep" || res.Properties[1].Name != "hs-ack-m0" {
		t.Fatalf("verdicts out of order: %v", res.Properties)
	}
	if _, err := liveness.ByName(m, []string{"no-such-property"}); err == nil {
		t.Fatal("unknown property name accepted")
	}
}

func TestCappedRunIsInconclusiveButSound(t *testing.T) {
	cfg := smallConfig()
	cfg.Drop = gcmodel.AblationDrop("mute_handshake", cfg.NMutators)
	m := build(t, cfg)
	res, err := liveness.Check(m, liveness.Options{}, explore.Options{MaxStates: 50})
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete || res.Stopped != explore.StopMaxStates {
		t.Fatalf("capped run: complete=%v stopped=%q", res.Complete, res.Stopped)
	}
	// explore.Options.MaxStates: the state that crosses the cap is still
	// expanded whole, so the count overshoots by at most one state's
	// successors per worker.
	if res.States < 50 || res.States > 50+64 {
		t.Fatalf("cap not respected: %d states", res.States)
	}
	// Any violation a capped run does report must still replay: capped
	// graphs under-approximate, they never fabricate.
	for _, p := range res.Violations() {
		if err := liveness.VerifyLasso(m, p.Counterexample); err != nil {
			t.Errorf("%s: capped-run lasso does not replay: %v", p.Name, err)
		}
	}
}

// TestCappedCleanRunFabricatesNothing pins capped-run soundness: a state
// is expanded whole or not at all, so a cap can only remove cycles. If it
// dropped single edges instead, their bits would be missing from the
// enabled mask, weak fairness would excuse genuinely enabled entities,
// and a model with no fair cycle would report one.
func TestCappedCleanRunFabricatesNothing(t *testing.T) {
	m := build(t, smallConfig())
	for _, cap := range []int{50, 500, 5000} {
		res, err := liveness.Check(m, liveness.Options{}, explore.Options{MaxStates: cap})
		if err != nil {
			t.Fatal(err)
		}
		if res.Complete {
			t.Fatalf("cap %d should truncate the graph", cap)
		}
		for _, p := range res.Violations() {
			t.Errorf("cap %d: fabricated violation of %s:\n%s",
				cap, p.Name, p.Counterexample.Render(m))
		}
	}
}

func TestGraphMatchesSafetyExploration(t *testing.T) {
	// The recorded graph is the unreduced relation the safety checker
	// explores: states, transitions and depth agree exactly with a plain
	// run, whatever reduction the caller's options asked for.
	m := build(t, smallConfig())
	want := explore.Run(m, nil, explore.Options{HashOnly: true})
	res, err := liveness.Check(m, liveness.Options{}, explore.Options{Reduce: true, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || res.States != want.States || res.Transitions != want.Transitions || res.Depth != want.Depth {
		t.Fatalf("liveness graph %d/%d/%d complete=%v, plain exploration %d/%d/%d",
			res.States, res.Transitions, res.Depth, res.Complete, want.States, want.Transitions, want.Depth)
	}
	if res.GraphBytes == 0 {
		t.Fatal("graph bytes not accounted")
	}
}

// TestDeterministicAcrossWorkers: the workers append to the edge log in
// whatever order they run, and none of that may show. Counts, verdicts
// and the rendered lassos are identical for every worker count, and every
// lasso is a genuine run of the unreduced relation.
func TestDeterministicAcrossWorkers(t *testing.T) {
	for name, ablate := range map[string]func(*gcmodel.Config){
		"clean":          func(*gcmodel.Config) {},
		"mute-handshake": func(c *gcmodel.Config) { c.Drop = gcmodel.AblationDrop("mute_handshake", c.NMutators) },
		"no-dequeue":     func(c *gcmodel.Config) { c.Drop = gcmodel.AblationDrop("no_dequeue", c.NMutators) },
	} {
		t.Run(name, func(t *testing.T) {
			cfg := smallConfig()
			ablate(&cfg)
			m := build(t, cfg)
			var want string
			for _, workers := range []int{1, 2, 4} {
				res, err := liveness.Check(m, liveness.Options{}, explore.Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				got := fmt.Sprintf("%d/%d/%d complete=%v graph=%d\n", res.States, res.Transitions, res.Depth, res.Complete, res.GraphBytes)
				for _, p := range res.Properties {
					got += fmt.Sprintf("%s holds=%v\n", p.Name, p.Holds)
					if p.Holds {
						continue
					}
					if err := liveness.VerifyLasso(m, p.Counterexample); err != nil {
						t.Errorf("workers=%d %s: lasso does not replay: %v", workers, p.Name, err)
					}
					got += p.Counterexample.Render(m)
				}
				if workers == 1 {
					want = got
				} else if got != want {
					t.Errorf("workers=%d differs from workers=1:\n%s\nwant:\n%s", workers, got, want)
				}
			}
			if name != "clean" && !strings.Contains(want, "holds=false") {
				t.Error("ablation found no fair cycle")
			}
		})
	}
}

// TestLogAndGraphBytes pins the byte accounting on tiny at budget 1
// (208,519 states, 486,687 transitions, depth 295) as functions of the
// counts. The graph keeps 16 B per state (hash, Bad bits, CSR offset)
// and 5 B per edge (target, entity code), plus the depth- and model-sized
// layer offsets, code table and the CSR's closing offset. The log holds
// 16 B per state, 16 B per expanded state (its run's head) and 9 B per
// edge (successor hash, code), at most 32 B per state and 9 B per edge.
// Neither count depends on the worker count.
func TestLogAndGraphBytes(t *testing.T) {
	cfg := core.TinyConfig()
	cfg.OpBudget = 1
	m := build(t, cfg)
	var want liveness.Result
	for _, workers := range []int{1, 2, 4} {
		res, err := liveness.Check(m, liveness.Options{}, explore.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		n, e := int64(res.States), int64(res.Transitions)
		if n != 208519 || e != 486687 || res.Depth != 295 || !res.Holds() {
			t.Fatalf("workers=%d: %d/%d/%d holds=%v, want 208519/486687/295 holding", workers, n, e, res.Depth, res.Holds())
		}
		layers, codes := int64(res.Depth+2), int64(3*cfg.NMutators+3)
		if got, formula := res.GraphBytes, 16*n+5*e+4+4*layers+8*codes; got != formula {
			t.Errorf("workers=%d: graph %d bytes, want 16·%d + 5·%d + %d = %d", workers, got, n, e, 4+4*layers+8*codes, formula)
		}
		if got := res.LogBytes; got > 32*n+9*e || got < 16*n+9*e {
			t.Errorf("workers=%d: log %d bytes, want between 16·%d + 9·%d and 32·%d + 9·%d", workers, got, n, e, n, e)
		}
		if workers == 1 {
			want = res
		} else if res.GraphBytes != want.GraphBytes || res.LogBytes != want.LogBytes {
			t.Errorf("workers=%d: graph %d and log %d bytes, at one worker %d and %d", workers, res.GraphBytes, res.LogBytes, want.GraphBytes, want.LogBytes)
		}
		t.Logf("workers=%d: graph %d B, log %d B", workers, res.GraphBytes, res.LogBytes)
	}
}
