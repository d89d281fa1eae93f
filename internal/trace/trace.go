// Package trace renders model states and counterexample traces in a
// compact human-readable form: the counterexamples that explore and
// liveness attach to their verdicts, and test failure output.
package trace

import (
	"fmt"
	"strings"

	"repro/internal/cimp"
	"repro/internal/gcmodel"
)

// ProcName renders a PID using the model's layout: gc, mut<i>, or sys.
func ProcName(m *gcmodel.Model, p cimp.PID) string {
	switch {
	case p == gcmodel.GCPID:
		return "gc"
	case p == m.SysPID():
		return "sys"
	default:
		return fmt.Sprintf("mut%d", int(p)-1)
	}
}

// Event renders a transition event.
func Event(m *gcmodel.Model, ev cimp.Event) string {
	if ev.Tau() {
		return fmt.Sprintf("%s: %s", ProcName(m, ev.Proc), ev.Label)
	}
	s := fmt.Sprintf("%s ⇄ %s: %s", ProcName(m, ev.Proc), ProcName(m, ev.Peer), ev.Label)
	if req, ok := ev.Alpha.(gcmodel.Req); ok {
		s += " [" + req.String() + "]"
	}
	return s
}

// State renders the interesting parts of a global state on one line.
func State(m *gcmodel.Model, st cimp.System[*gcmodel.Local]) string {
	g := gcmodel.Global{Model: m, State: st}
	sys := g.Sys()
	var b strings.Builder
	fmt.Fprintf(&b, "phase=%v fM=%v fA=%v heap=%v", sys.Phase, sys.FM, sys.FA, sys.Heap)
	fmt.Fprintf(&b, " gcW=%v sysW=%v tag=%v", g.GC().W, sys.W, sys.Tag)
	for i := 0; i < g.NMut(); i++ {
		mu := g.Mut(i)
		fmt.Fprintf(&b, " m%d{roots=%v WM=%v hp=%v}", i, mu.Roots, mu.WM, mu.HP)
	}
	for p, buf := range sys.Bufs {
		if len(buf) > 0 {
			fmt.Fprintf(&b, " buf[%s]=%v", ProcName(m, cimp.PID(p)), buf)
		}
	}
	if sys.Lock != -1 {
		fmt.Fprintf(&b, " lock=%s", ProcName(m, sys.Lock))
	}
	return b.String()
}
