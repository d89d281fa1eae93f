package liveness

import (
	"fmt"
	"strings"

	"repro/internal/cimp"
	"repro/internal/explore"
	"repro/internal/gcmodel"
	"repro/internal/trace"
)

// Step is one transition of a lasso counterexample: the event taken and
// the state reached.
type Step = explore.Step

// Lasso is a lasso-shaped liveness counterexample: a finite stem from
// the initial state to the cycle head, then a cycle that returns to the
// head. The run Stem · Cycle^ω is an infinite execution of the model on
// which the violated property's obligation is outstanding at every
// cycle state, and the cycle is weakly fair — no starved process, no
// procrastinated buffer, no unpolled handshake excuses it.
type Lasso struct {
	Stem  []Step
	Cycle []Step
}

// Head returns the cycle head state (the state the stem ends in, which
// the cycle returns to).
func (l *Lasso) Head(m *gcmodel.Model) gcmodel.SysState {
	if len(l.Stem) > 0 {
		return l.Stem[len(l.Stem)-1].State
	}
	return m.Initial()
}

// lasso materializes a witness walk into concrete states by replaying
// event indices through the transition relation: the stem is the BFS
// parent chain (parent, from graph.parents) of the walk's first node, the
// cycle is the walk itself. Every replayed state is cross-checked against
// the hash recorded at graph-construction time, so a 64-bit fingerprint
// collision surfaces as an error here rather than as a nonsense trace.
func (g *graph) lasso(walk []walkEdge, parent []int32) (*Lasso, error) {
	head := walk[0].from

	// Stem: parent edges root → head. A node's parent edge is the
	// parent's first out-edge into it.
	var rev []walkEdge // the head's parent edge first
	for v := head; parent[v] >= 0; v = parent[v] {
		u := parent[v]
		j, _ := g.outEdges(u)
		for g.eto[j] != v {
			j++
		}
		rev = append(rev, walkEdge{from: u, j: j})
	}
	cur := g.m.Initial()
	l := &Lasso{}
	replay := func(e walkEdge) (Step, error) {
		st, err := explore.ReplayStep(g.m, cur, e.j-g.estart[e.from], g.hash[g.eto[e.j]])
		cur = st.State
		return st, err
	}
	for i := len(rev) - 1; i >= 0; i-- {
		st, err := replay(rev[i])
		if err != nil {
			return nil, fmt.Errorf("stem: %w", err)
		}
		l.Stem = append(l.Stem, st)
	}
	for _, e := range walk {
		st, err := replay(e)
		if err != nil {
			return nil, fmt.Errorf("cycle: %w", err)
		}
		l.Cycle = append(l.Cycle, st)
	}
	return l, nil
}

// Render formats the lasso for human consumption: the numbered stem,
// then the cycle marked as repeating forever.
func (l *Lasso) Render(m *gcmodel.Model) string {
	var b strings.Builder
	fmt.Fprintf(&b, "lasso: %d-step stem, %d-step cycle\n", len(l.Stem), len(l.Cycle))
	fmt.Fprintf(&b, "  init: %s\n", trace.State(m, m.Initial()))
	for i, st := range l.Stem {
		fmt.Fprintf(&b, "  %4d. %s\n        %s\n", i+1, trace.Event(m, st.Ev), trace.State(m, st.State))
	}
	fmt.Fprintf(&b, "  ---- cycle: the following %d steps repeat forever ----\n", len(l.Cycle))
	for i, st := range l.Cycle {
		fmt.Fprintf(&b, "  %4d. %s\n        %s\n", len(l.Stem)+i+1, trace.Event(m, st.Ev), trace.State(m, st.State))
	}
	return b.String()
}

// VerifyLasso independently replays a lasso through the full, unreduced
// transition relation (the liveness analogue of diffcheck.VerifyReplay):
// each step must match an enumerated successor by process, label and
// fingerprint, and the cycle must return exactly to the cycle head. It
// deliberately shares no state with the detector — only the model's
// Successors — so it re-derives every state from the initial one.
func VerifyLasso(m *gcmodel.Model, l *Lasso) error {
	if l == nil {
		return fmt.Errorf("liveness: nil lasso")
	}
	if len(l.Cycle) == 0 {
		return fmt.Errorf("liveness: lasso has an empty cycle")
	}
	cur := m.Initial()
	replay := func(part string, steps []Step) error {
		for i, want := range steps {
			wantFP := m.Fingerprint(want.State)
			var next gcmodel.SysState
			found := false
			m.Successors(cur, func(ns gcmodel.SysState, ev cimp.Event) {
				if found || ev.Proc != want.Ev.Proc || ev.Label != want.Ev.Label {
					return
				}
				if m.Fingerprint(ns) == wantFP {
					next = ns
					found = true
				}
			})
			if !found {
				return fmt.Errorf("liveness: %s step %d (%v by pid %d) does not match any successor",
					part, i+1, want.Ev.Label, want.Ev.Proc)
			}
			cur = next
		}
		return nil
	}
	if err := replay("stem", l.Stem); err != nil {
		return err
	}
	headFP := m.Fingerprint(cur)
	if err := replay("cycle", l.Cycle); err != nil {
		return err
	}
	if m.Fingerprint(cur) != headFP {
		return fmt.Errorf("liveness: cycle does not return to its head state")
	}
	return nil
}
