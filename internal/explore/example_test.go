package explore_test

import (
	"fmt"

	"repro/internal/cimp"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/gcmodel"
	"repro/internal/trace"
)

// staleRead is a checking Visitor for Figure 3's ⤳ arrows: it fails on a
// mutator's load of phase or f_M that returns an older value than the
// collector's own view, because the collector's newer write still sits in
// its TSO store buffer.
type staleRead struct{ m *gcmodel.Model }

func (s staleRead) Edge(e explore.Edge) error {
	req, isReq := e.Ev.Alpha.(gcmodel.Req)
	resp, isResp := e.Ev.Beta.(gcmodel.Resp)
	if !isReq || !isResp || req.Kind != gcmodel.RRead || e.Ev.Proc == gcmodel.GCPID {
		return nil
	}
	g := gcmodel.Global{Model: s.m, State: e.From}
	switch {
	case req.Loc.Kind == gcmodel.LPhase && resp.Val.Phase() != g.GCViewPhase():
		return fmt.Errorf("mutator loaded phase = %v, the collector is at %v, its buffer holds %v",
			resp.Val.Phase(), g.GCViewPhase(), g.Buf(gcmodel.GCPID))
	case req.Loc.Kind == gcmodel.LFM && resp.Val.Bool() != g.GCViewFM():
		return fmt.Errorf("mutator loaded f_M = %v, the collector's is %v, its buffer holds %v",
			resp.Val.Bool(), g.GCViewFM(), g.Buf(gcmodel.GCPID))
	}
	return nil
}

func (staleRead) State(explore.Node) error { return nil }
func (staleRead) Checks() bool             { return true }

// A checking Visitor turns the search into a witness finder: the first
// stale read of the collector's control state, at the least depth any
// schedule reaches one, with the path to it replayed. The sys_phase_inv
// and mutator_phase_inv invariants (§3.2) bound such windows; they do not
// rule them out.
func ExampleVisitor() {
	m, err := gcmodel.Build(core.TinyConfig())
	if err != nil {
		panic(err)
	}
	// One worker: the depth and the stale read are the same at any width,
	// but the path follows whichever parent won each insert race.
	res := explore.Run(m, nil, explore.Options{
		Trace: true, HashOnly: true, Workers: 1,
		Visitors: []explore.Visitor{staleRead{m}},
	})
	v := res.Violation
	fmt.Printf("%s at depth %d after %d states\n", v.Invariant, v.Depth, res.States)
	fmt.Println(v.Err)

	// The witness is a run of the unreduced relation: every step is one
	// of its predecessor's successors.
	cur := m.Initial()
	for i, s := range v.Trace {
		want, ok := m.FingerprintHash(s.State), false
		m.Successors(cur, func(next cimp.System[*gcmodel.Local], ev cimp.Event) {
			ok = ok || ev.Label == s.Ev.Label && ev.Proc == s.Ev.Proc && m.FingerprintHash(next) == want
		})
		if !ok {
			panic(fmt.Sprintf("step %d does not replay", i+1))
		}
		cur = s.State
	}
	fmt.Printf("%d steps replay; the last is %s\n", len(v.Trace), trace.Event(m, v.Trace[len(v.Trace)-1].Ev))
	// Output:
	// event-check at depth 13 after 765 states
	// mutator loaded f_M = false, the collector's is true, its buffer holds [fM←1]
	// 13 steps replay; the last is mut0 ⇄ sys: mut0_delbar_load_fM [p1 read fM]
}
