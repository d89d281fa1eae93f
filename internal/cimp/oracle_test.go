package cimp

import "fmt"

// This file keeps the reference definition of the atomic-action semantics:
// the recursive, allocating tree walk the table-driven engine in step.go
// and system.go replaced. It reads nothing the Index records, so it is an
// independent oracle: the differential tests (compiled_test.go here,
// differential_test.go over the GC model) require the compiled
// enumeration to produce the same heads, continuations, successors and
// events, in the same order, frame for frame.

// RefHead is a head as the reference semantics builds it: the action and
// its fully materialised continuation.
type RefHead[S any] struct {
	Act  Com[S]
	Cont []Com[S]
}

// RefNorm is the reference Norm: one fresh stack per unfolded frame.
func RefNorm[S any](stack []Com[S], s S) []Com[S] {
	for i := 0; ; i++ {
		if i > maxUnfold {
			panic("cimp: control unfolding diverged (loop with no action command)")
		}
		if len(stack) == 0 {
			return stack
		}
		switch c := stack[0].(type) {
		case *Skip[S]:
			stack = stack[1:]
		case *Seq[S]:
			ns := make([]Com[S], 0, len(stack)+1)
			ns = append(ns, c.A, c.B)
			ns = append(ns, stack[1:]...)
			stack = ns
		case *Cond[S]:
			branch := c.Else
			if c.C(s) {
				branch = c.Then
			}
			stack = pushed(stack[1:], branch)
		case *While[S]:
			if c.C(s) {
				stack = pushed(stack, c.Body) // While itself stays beneath the body
			} else {
				stack = stack[1:]
			}
		case *Loop[S]:
			stack = pushed(stack, c.Body) // Loop stays beneath the body
		default:
			return stack
		}
	}
}

// RefHeads is the reference Heads: normalize, then recurse into every
// Choose alternative.
func RefHeads[S any](stack []Com[S], s S) []RefHead[S] {
	stack = RefNorm(stack, s)
	if len(stack) == 0 {
		return nil
	}
	switch c := stack[0].(type) {
	case *Choose[S]:
		var hs []RefHead[S]
		for _, alt := range c.Alts {
			hs = append(hs, RefHeads(pushed(stack[1:], alt), s)...)
		}
		return hs
	case *LocalOp[S], *Request[S], *Response[S]:
		return []RefHead[S]{{Act: stack[0], Cont: stack[1:]}}
	default:
		panic(fmt.Sprintf("cimp: RefNorm returned unexpected head %T", c))
	}
}

func refFuse[S any](cfg Config[S]) Config[S] {
	for i := 0; i < maxUnfold; i++ {
		stack := RefNorm(cfg.Stack, cfg.Data)
		cfg.Stack = stack
		if len(stack) == 0 {
			return cfg
		}
		op, ok := stack[0].(*LocalOp[S])
		if !ok || !op.Fuse {
			return cfg
		}
		next := op.F(cfg.Data)
		if len(next) != 1 {
			return cfg
		}
		cfg = Config[S]{Stack: stack[1:], Data: next[0]}
	}
	panic("cimp: fusion diverged")
}

// RefSuccessors is the reference System.Successors: heads re-derived for
// the τ steps, for the offers, and again per (offer, peer) pair.
func RefSuccessors[S any](sys System[S], yield func(next System[S], ev Event)) {
	post := func(c Config[S]) Config[S] {
		if sys.DisableFusion {
			return Config[S]{Stack: RefNorm(c.Stack, c.Data), Data: c.Data}
		}
		return refFuse(c)
	}
	for p, cfg := range sys.Procs {
		pid := PID(p)
		for _, h := range RefHeads(cfg.Stack, cfg.Data) {
			op, ok := h.Act.(*LocalOp[S])
			if !ok {
				continue
			}
			for _, s2 := range op.F(cfg.Data) {
				ns := sys.CloneShallow()
				ns.Procs[p] = post(Config[S]{Stack: h.Cont, Data: s2})
				yield(ns, Event{Proc: pid, Peer: -1, Label: op.L})
			}
		}
		for _, h := range RefHeads(cfg.Stack, cfg.Data) {
			req, ok := h.Act.(*Request[S])
			if !ok {
				continue
			}
			alpha := req.Act(cfg.Data)
			for q, peer := range sys.Procs {
				if q == p {
					continue
				}
				for _, g := range RefHeads(peer.Stack, peer.Data) {
					resp, ok := g.Act.(*Response[S])
					if !ok {
						continue
					}
					for _, r := range resp.F(peer.Data, alpha) {
						for _, s2 := range req.Ret(cfg.Data, r.Msg) {
							ns := sys.CloneShallow()
							ns.Procs[p] = post(Config[S]{Stack: h.Cont, Data: s2})
							ns.Procs[q] = post(Config[S]{Stack: g.Cont, Data: r.S})
							yield(ns, Event{
								Proc: pid, Peer: PID(q),
								Label: req.L, PeerLabel: resp.L,
								Alpha: alpha, Beta: r.Msg,
							})
						}
					}
				}
			}
		}
	}
}

// SameFrames reports whether two stacks hold the same command nodes in
// the same order.
func SameFrames[S any](a, b []Com[S]) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
