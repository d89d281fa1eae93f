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
// returns false. Every process's heads are enumerated exactly once, into
// scratch on this frame; a τ step fires a LocalOp head, and a rendezvous
// pairs a Request head of p with a Response head of q. Transitions are
// yielded in PID order, τ steps before rendezvous, heads in program order.
func (sys System[S]) successors(yield func(next System[S], ev Event) bool) {
	// heads[off[p]:off[p+1]] are process p's; eight processes and 32 heads
	// fit on the frame, larger systems spill to the heap through append.
	var headBuf [2 * headScratch]Head[S]
	var offBuf [9]int
	heads, off := headBuf[:0], offBuf[:0]
	for _, cfg := range sys.Procs {
		off = append(off, len(heads))
		heads = AppendHeads(heads, cfg.Stack, cfg.Data)
	}
	off = append(off, len(heads))
	fusion := !sys.DisableFusion

	for p, cfg := range sys.Procs {
		pid := PID(p)
		mine := heads[off[p]:off[p+1]]
		for i := range mine {
			op, ok := mine[i].Act.(*LocalOp[S])
			if !ok {
				continue
			}
			for _, s2 := range op.F(cfg.Data) {
				ns := sys.CloneShallow()
				ns.Procs[p] = mine[i].after(s2, fusion)
				if !yield(ns, Event{Proc: pid, Peer: -1, Label: op.L}) {
					return
				}
			}
		}
		for i := range mine {
			req, ok := mine[i].Act.(*Request[S])
			if !ok {
				continue
			}
			alpha := req.Act(cfg.Data)
			for q, peer := range sys.Procs {
				if q == p {
					continue
				}
				theirs := heads[off[q]:off[q+1]]
				for j := range theirs {
					resp, ok := theirs[j].Act.(*Response[S])
					if !ok {
						continue
					}
					for _, r := range resp.F(peer.Data, alpha) {
						accepted := req.Ret(cfg.Data, r.Msg)
						if len(accepted) == 0 {
							continue // the requester refuses this response
						}
						qNext := theirs[j].after(r.S, fusion)
						for _, s2 := range accepted {
							ns := sys.CloneShallow()
							ns.Procs[p] = mine[i].after(s2, fusion)
							ns.Procs[q] = qNext
							if !yield(ns, Event{
								Proc: pid, Peer: PID(q),
								Label: req.L, PeerLabel: resp.L,
								Alpha: alpha, Beta: r.Msg,
							}) {
								return
							}
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
