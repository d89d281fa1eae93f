package cimp

// This file implements the faithful small-step semantics of paper Figure 7,
// in which sequential composition and control constructs unfold one frame
// per transition. It exists to validate, by testing, that the derived
// atomic-action semantics in step.go reaches exactly the same action-level
// configurations (the paper derives the evaluation-context semantics from
// this one).

// pushed returns a fresh stack with c on top of stack.
func pushed[S any](stack []Com[S], c Com[S]) []Com[S] {
	ns := make([]Com[S], 0, len(stack)+1)
	ns = append(ns, c)
	ns = append(ns, stack...)
	return ns
}

// SSKind classifies a small-step transition's communication action γ.
type SSKind int

const (
	// SSTau is a local computation step (γ = τ), including control
	// unfolding steps.
	SSTau SSKind = iota
	// SSSend is the sending half of a rendezvous (γ = »α,β«).
	SSSend
	// SSRecv is the receiving half of a rendezvous (γ = «α,β»).
	SSRecv
)

// SSStep is one small-step transition of a single process.
type SSStep[S any] struct {
	Kind        SSKind
	Alpha, Beta Msg
	Next        Config[S]
}

// SmallSteps enumerates the transitions of a single process configuration
// under the Figure 7 rules. For Request heads, every possible β accepted
// by Ret must be supplied by the environment; answer enumerates candidate
// βs for a given α (in a closed system, these come from the peers'
// Responses). Passing a nil answer enumerates no communication steps.
func SmallSteps[S any](cfg Config[S], answer func(alpha Msg) []Msg) []SSStep[S] {
	if len(cfg.Stack) == 0 {
		return nil
	}
	rest := cfg.Stack[1:]
	var out []SSStep[S]
	switch c := cfg.Stack[0].(type) {
	case *Skip[S]:
		out = append(out, SSStep[S]{Kind: SSTau, Next: Config[S]{Stack: rest, Data: cfg.Data}})
	case *Seq[S]:
		ns := make([]Com[S], 0, len(rest)+2)
		ns = append(ns, c.A, c.B)
		ns = append(ns, rest...)
		out = append(out, SSStep[S]{Kind: SSTau, Next: Config[S]{Stack: ns, Data: cfg.Data}})
	case *Cond[S]:
		branch := c.Else
		if c.C(cfg.Data) {
			branch = c.Then
		}
		out = append(out, SSStep[S]{Kind: SSTau, Next: Config[S]{Stack: pushed(rest, branch), Data: cfg.Data}})
	case *While[S]:
		if c.C(cfg.Data) {
			ns := make([]Com[S], 0, len(cfg.Stack)+1)
			ns = append(ns, c.Body)
			ns = append(ns, cfg.Stack...)
			out = append(out, SSStep[S]{Kind: SSTau, Next: Config[S]{Stack: ns, Data: cfg.Data}})
		} else {
			out = append(out, SSStep[S]{Kind: SSTau, Next: Config[S]{Stack: rest, Data: cfg.Data}})
		}
	case *Loop[S]:
		ns := make([]Com[S], 0, len(cfg.Stack)+1)
		ns = append(ns, c.Body)
		ns = append(ns, cfg.Stack...)
		out = append(out, SSStep[S]{Kind: SSTau, Next: Config[S]{Stack: ns, Data: cfg.Data}})
	case *Choose[S]:
		for _, alt := range c.Alts {
			out = append(out, SSStep[S]{Kind: SSTau, Next: Config[S]{Stack: pushed(rest, alt), Data: cfg.Data}})
		}
	case *LocalOp[S]:
		for _, s2 := range c.F(cfg.Data) {
			out = append(out, SSStep[S]{Kind: SSTau, Next: Config[S]{Stack: rest, Data: s2}})
		}
	case *Request[S]:
		if answer == nil {
			break
		}
		alpha := c.Act(cfg.Data)
		for _, beta := range answer(alpha) {
			for _, s2 := range c.Ret(cfg.Data, beta) {
				out = append(out, SSStep[S]{Kind: SSSend, Alpha: alpha, Beta: beta,
					Next: Config[S]{Stack: rest, Data: s2}})
			}
		}
	case *Response[S]:
		// A Response can answer any α the environment may pose; in a
		// closed system the system semantics pairs it with a concrete
		// Request. SmallSteps exposes it via AnswerSmall below instead.
	}
	return out
}

// AnswerSmall enumerates the receiving-half transitions of a configuration
// whose head is a Response, for a concrete request α.
func AnswerSmall[S any](cfg Config[S], alpha Msg) []SSStep[S] {
	if len(cfg.Stack) == 0 {
		return nil
	}
	resp, ok := cfg.Stack[0].(*Response[S])
	if !ok {
		return nil
	}
	var out []SSStep[S]
	for _, r := range resp.F(cfg.Data, alpha) {
		out = append(out, SSStep[S]{Kind: SSRecv, Alpha: alpha, Beta: r.Msg,
			Next: Config[S]{Stack: cfg.Stack[1:], Data: r.S}})
	}
	return out
}
