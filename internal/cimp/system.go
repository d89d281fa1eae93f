package cimp

// PID identifies a process in a flat parallel composition.
type PID int

// Event describes one system transition for trace reporting.
type Event struct {
	// Proc is the process that moved; for a rendezvous it is the requester.
	Proc PID
	// Peer is the responder of a rendezvous, or -1 for a τ step.
	Peer PID
	// Label is the label of the command that fired (the request label for
	// a rendezvous).
	Label string
	// PeerLabel is the responder's label for a rendezvous, else "".
	PeerLabel string
	// Alpha and Beta carry the rendezvous messages, nil for τ steps.
	Alpha, Beta Msg
}

// Tau marks τ-step events.
func (e Event) Tau() bool { return e.Peer < 0 }

// System is the flat parallel composition of CIMP processes sharing local
// state type S (paper Figure 8). Process transitions interleave at the top
// level with no action hiding; rendezvous synchronizes exactly two
// processes.
type System[S any] struct {
	Procs []Config[S]
	// DisableFusion turns off the merging of register-only (Fuse-marked)
	// LocalOps into the preceding transition. Fusion is a sound
	// stutter-reduction — fused steps touch no state observable by other
	// processes — and is on by default; disabling it recovers the fully
	// fine-grained semantics for validation runs.
	DisableFusion bool
}

// CloneShallow copies the process table (the configurations themselves are
// persistent values and are shared).
func (sys System[S]) CloneShallow() System[S] {
	ps := make([]Config[S], len(sys.Procs))
	copy(ps, sys.Procs)
	return System[S]{Procs: ps, DisableFusion: sys.DisableFusion}
}

// Successors enumerates every enabled system transition from sys,
// invoking yield with the successor system state and the event that
// produced it. Successor states share all unchanged process
// configurations with sys.
//
// Two rules apply (paper Figure 8):
//
//	τ:          one process takes a local step;
//	rendezvous: a Request of process p synchronizes with a Response of a
//	            distinct process q; both update local state simultaneously.
func (sys System[S]) Successors(yield func(next System[S], ev Event)) {
	sys.successors(func(next System[S], ev Event) bool {
		yield(next, ev)
		return true
	})
}

// successors is Successors with early exit: it stops as soon as yield
// returns false. Each process's configuration is resolved to its record in
// the configuration table (memo.go) and its step table read — or, for a
// configuration the table has not seen, computed — exactly once; a τ step
// is one of a process's cached τ successors, and a rendezvous pairs a
// Request head of p with the replies of q to its α and p's continuations
// on each β. Transitions are yielded in PID order, τ steps before
// rendezvous, heads in program order, replies and accepted states in
// handler order — the order of the uncached enumeration, which is what
// fills the table.
func (sys System[S]) successors(yield func(next System[S], ev Event) bool) {
	m := sys.memo()
	// Eight processes fit on the frame; larger systems spill to the heap
	// through append.
	var recBuf [8]*record[S]
	var stepBuf [8]*steps[S]
	recs, sts := recBuf[:0], stepBuf[:0]
	var t tally
	var stripe uint32
	stale := false
	for _, cfg := range sys.Procs {
		r := m.intern(cfg)
		if r != nil {
			stripe = stripe*31 + r.cfg.id
			stale = stale || r.cfg.id != cfg.id
		}
		recs = append(recs, r)
		sts = append(sts, m.stepsOf(r, cfg, &t))
	}
	if stale {
		// A hand-built or decoded state, or one that outlived its table:
		// successors inherit the unchanged processes from sys, so give them
		// the interned configurations and the ids resolve from here on.
		sys = sys.CloneShallow()
		for p, r := range recs {
			if r != nil {
				sys.Procs[p] = r.cfg
			}
		}
	}
	sys.enumerate(m, recs, sts, &t, yield)
	m.count(&t, stripe)
}

// memo returns the configuration table the system's processes are stepped
// through: that of the first process whose program names an Index, under
// the system's fusion setting. Processes of another Index (or of none:
// terminated ones) are stepped without a record.
func (sys System[S]) memo() *memo[S] {
	for _, cfg := range sys.Procs {
		if ix := indexOf(cfg); ix != nil {
			return ix.memo(!sys.DisableFusion)
		}
	}
	return &memo[S]{fusion: !sys.DisableFusion}
}

func (sys System[S]) enumerate(m *memo[S], recs []*record[S], sts []*steps[S], t *tally, yield func(next System[S], ev Event) bool) {
	for p, cfg := range sys.Procs {
		pid := PID(p)
		st := sts[p]
		for i := range st.taus {
			ns := sys.CloneShallow()
			ns.Procs[p] = st.taus[i].next.cfg
			if !yield(ns, Event{Proc: pid, Peer: -1, Label: st.taus[i].op.L}) {
				return
			}
		}
		for i := range st.offers {
			o := &st.offers[i]
			for q, peer := range sys.Procs {
				if q == p || sts[q].nresp == 0 {
					continue
				}
				replies := m.repliesOf(recs[q], peer, o, t)
				for j := range replies {
					r := &replies[j]
					// An empty answer means the requester refuses this response.
					for _, c := range m.contsOf(recs[p], cfg, o, r, t) {
						ns := sys.CloneShallow()
						ns.Procs[p] = c.next.cfg
						ns.Procs[q] = r.next.cfg
						if !yield(ns, Event{
							Proc: pid, Peer: PID(q),
							Label: o.req.L, PeerLabel: r.resp.L,
							Alpha: o.alpha, Beta: r.beta,
						}) {
							return
						}
					}
				}
			}
		}
	}
}

// Deadlocked reports whether no transition is enabled and at least one
// process has commands left to run.
func (sys System[S]) Deadlocked() bool {
	enabled := false
	sys.successors(func(System[S], Event) bool {
		enabled = true
		return false
	})
	if enabled {
		return false
	}
	for _, p := range sys.Procs {
		if !Terminated(p) {
			return true
		}
	}
	return false
}
