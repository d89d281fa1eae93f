package gcmodel

import (
	"repro/internal/cimp"
)

// Helpers for building collector and mutator programs. Every interaction
// with shared state is a CIMP Request answered by the system process;
// local register updates are deterministic LocalOps.

// seqs folds commands into nested Seq nodes with S fixed to *Local
// (explicit instantiation: Go cannot infer S from concrete command types).
func seqs(cs ...cimp.Com[*Local]) cimp.Com[*Local] { return cimp.Seqs[*Local](cs...) }

// clone adapts Local.Clone to the cimp.Det helper.
func clone(l *Local) *Local { return l.Clone() }

// det builds a deterministic local step that mutates a cloned state.
func det(label string, f func(*Local)) cimp.Com[*Local] {
	return cimp.Det(label, clone, func(l *Local) *Local {
		f(l)
		return l
	})
}

// req builds a Request whose α is derived from the local state and whose
// response updates a cloned local state.
func req(label string, act func(*Local) Req, ret func(*Local, Resp)) cimp.Com[*Local] {
	return &cimp.Request[*Local]{
		L: label,
		Act: func(l *Local) cimp.Msg {
			r := act(l)
			r.P = l.Self
			return r
		},
		Ret: func(l *Local, beta cimp.Msg) []*Local {
			n := l.Clone()
			if ret != nil {
				ret(n, beta.(Resp))
			}
			return []*Local{n}
		},
	}
}

// readTo builds a TSO load of a location into a register.
func readTo(label string, loc func(*Local) Loc, set func(*Local, Val)) cimp.Com[*Local] {
	return req(label,
		func(l *Local) Req { return Req{Kind: RRead, Loc: loc(l)} },
		func(l *Local, r Resp) { set(l, r.Val) })
}

// writeVal builds a TSO (buffered) store of a register-derived value.
func writeVal(label string, loc func(*Local) Loc, val func(*Local) Val, then func(*Local)) cimp.Com[*Local] {
	return req(label,
		func(l *Local) Req { return Req{Kind: RWrite, Loc: loc(l), Val: val(l)} },
		func(l *Local, _ Resp) {
			if then != nil {
				then(l)
			}
		})
}

// mfence builds an MFENCE (completes when the requester's buffer is
// empty).
func mfence(label string) cimp.Com[*Local] {
	return req(label, func(*Local) Req { return Req{Kind: RMFence} }, nil)
}
