package cimp

import "fmt"

// Config is a process configuration: a frame stack of commands (element 0
// is the top / next to execute) paired with the process's local data state.
//
// Configurations the step engine produces also carry the id of their
// record in the Index's configuration table (memo.go); a hand-built or
// decoded one carries none and is interned the first time a system
// holding it is expanded. The id is only a hint — resolving it re-checks
// the record's data value and stack backing — so copying a Config and
// replacing its Data or Stack is safe. Editing a data state in place after
// the configuration has been stepped is not: the table's record shares it.
type Config[S any] struct {
	Stack []Com[S]
	Data  S
	id    uint32 // 0 = not interned
}

// maxUnfold bounds deterministic control unfolding; exceeding it indicates
// an action-free loop in the program, which is a modeling error.
const maxUnfold = 10_000

// The step engine works on a frame stack held in two parts, seg ++ tail:
// seg is a slice of one of the Index's static unfolding tables (or empty)
// and tail is a suffix of the stack the step started from. Neither part is
// ever written; unfolding control only re-slices them, and the stack
// seg ++ tail is materialised (join) once, for a configuration that is
// actually produced. Only when a second table segment would be needed —
// control that is decided by data while static frames are still pending
// above the tail — are the pending frames copied into a fresh tail.

// unfolding returns the static unfolding NewIndex recorded for c.
func unfolding[S any](c Com[S]) []Com[S] {
	n := c.meta()
	if n == nil {
		return nil // Skip
	}
	if n.ix == nil {
		panic(fmt.Sprintf("cimp: command %T %q is not indexed: build a NewIndex over the program before stepping it", c, c.Label()))
	}
	return n.pre
}

func concat[S any](seg, tail []Com[S]) []Com[S] {
	ns := make([]Com[S], len(seg)+len(tail))
	copy(ns[copy(ns, seg):], tail)
	return ns
}

// join materialises seg ++ tail. The result is fresh, or is tail or the
// table segment itself when the other part is empty; either way it is
// shared and must not be written.
func join[S any](seg, tail []Com[S]) []Com[S] {
	switch {
	case len(seg) == 0:
		return tail
	case len(tail) == 0:
		return seg
	}
	return concat(seg, tail)
}

// top returns the top frame of seg ++ tail, or nil when it is empty.
func top[S any](seg, tail []Com[S]) Com[S] {
	switch {
	case len(seg) > 0:
		return seg[0]
	case len(tail) > 0:
		return tail[0]
	}
	return nil
}

// pop removes the top frame of a non-empty seg ++ tail.
func pop[S any](seg, tail []Com[S]) ([]Com[S], []Com[S]) {
	if len(seg) > 0 {
		return seg[1:], tail
	}
	return seg, tail[1:]
}

// settle unfolds deterministic control (Seq, Cond, While, Loop, Skip) on
// top of seg ++ tail until the top is an action command (LocalOp, Request,
// Response), a Choose, or the stack is empty. Conditions are pure
// functions of the data state, so this unfolding is deterministic and
// corresponds to the paper's derived evaluation-context semantics: control
// between two atomic actions is folded into the preceding transition.
func settle[S any](seg, tail []Com[S], s S) ([]Com[S], []Com[S]) {
	for i := 0; i <= maxUnfold; i++ {
		var push []Com[S] // what the top frame unfolds to
		stays := false    // a While whose condition holds stays beneath its body
		switch c := top(seg, tail).(type) {
		case nil, *LocalOp[S], *Request[S], *Response[S], *Choose[S]:
			return seg, tail
		case *Cond[S]:
			if c.C(s) {
				push = unfolding(c.Then)
			} else {
				push = unfolding(c.Else)
			}
		case *While[S]:
			if stays = c.C(s); stays {
				push = unfolding(c.Body)
			}
		default: // Seq, Loop, Skip
			push = unfolding(c)
		}
		if !stays {
			seg, tail = pop(seg, tail)
		}
		if len(push) > 0 {
			if len(seg) > 0 {
				tail = concat(seg, tail)
			}
			seg = push
		}
	}
	panic("cimp: control unfolding diverged (loop with no action command)")
}

// Norm unfolds deterministic control on top of the stack until the head
// is an action command, a Choose, or the stack is empty (see settle). The
// returned stack is fresh or shares structure with the input and the
// program's tables; the input is not modified.
func Norm[S any](stack []Com[S], s S) []Com[S] {
	return join(settle(nil, stack, s))
}

// Head is one enabled action at the top of a configuration: the action
// command itself together with the continuation stack that remains after
// it fires, held as a static table segment above a shared tail. Choose
// nodes fan out into several Heads.
type Head[S any] struct {
	Act       Com[S] // *LocalOp, *Request, or *Response
	pre, tail []Com[S]
}

// Cont materialises the continuation stack.
func (h *Head[S]) Cont() []Com[S] { return join(h.pre, h.tail) }

// after is the configuration the process is in once h.Act has fired and
// left data state s: the continuation with control unfolded against s.
// With fusion, Fuse-marked deterministic LocalOps at the head are executed
// too, merging them into the transition; only single-successor
// applications are merged — a Fuse-marked op that blocks or branches is
// left for the normal step relation.
func (h *Head[S]) after(s S, fusion bool) Config[S] {
	seg, tail := h.pre, h.tail
	for i := 0; i <= maxUnfold; i++ {
		seg, tail = settle(seg, tail, s)
		op, ok := top(seg, tail).(*LocalOp[S])
		if !fusion || !ok || !op.Fuse {
			return Config[S]{Stack: join(seg, tail), Data: s}
		}
		next := op.F(s)
		if len(next) != 1 {
			return Config[S]{Stack: join(seg, tail), Data: s}
		}
		seg, tail = pop(seg, tail)
		s = next[0]
	}
	panic("cimp: fusion diverged")
}

// AppendHeads appends to dst the action commands reachable from the top
// of the stack by resolving Choose alternatives and unfolding
// deterministic control, in program order, and returns the extended
// slice. The data state is needed to evaluate conditions. With enough
// capacity in dst it allocates nothing for a stack that is already
// normalized.
func AppendHeads[S any](dst []Head[S], stack []Com[S], s S) []Head[S] {
	return appendHeads(dst, nil, stack, s, int(^uint(0)>>1))
}

// appendHeads is AppendHeads over seg ++ tail; it stops early once dst
// holds max heads.
func appendHeads[S any](dst []Head[S], seg, tail []Com[S], s S, max int) []Head[S] {
	seg, tail = settle(seg, tail, s)
	act := top(seg, tail)
	if act == nil {
		return dst
	}
	seg, tail = pop(seg, tail)
	ch, ok := act.(*Choose[S])
	if !ok {
		return append(dst, Head[S]{Act: act, pre: seg, tail: tail})
	}
	tail = join(seg, tail)
	for _, alt := range ch.Alts {
		if len(dst) >= max {
			break
		}
		dst = appendHeads(dst, unfolding(alt), tail, s, max)
	}
	return dst
}

// headScratch is the head capacity steppers keep on their own stack
// frame; wider configurations spill to the heap through append.
const headScratch = 16

// TauSuccessors yields the successor configurations of all enabled local
// (τ) actions of cfg, i.e. every LocalOp head. Each successor is already
// normalized. The results share structure with cfg; LocalOp step functions
// are responsible for the freshness of successor data states.
func TauSuccessors[S any](cfg Config[S], yield func(next Config[S], label string)) {
	var buf [headScratch]Head[S]
	hs := AppendHeads(buf[:0], cfg.Stack, cfg.Data)
	for i := range hs {
		op, ok := hs[i].Act.(*LocalOp[S])
		if !ok {
			continue
		}
		for _, s2 := range op.F(cfg.Data) {
			yield(hs[i].after(s2, false), op.L)
		}
	}
}

// cachedSteps returns the step table of an interned configuration,
// computing it if this is the first time anyone asks, or nil for a
// configuration that carries no (valid) id.
func cachedSteps[S any](cfg Config[S]) *steps[S] {
	if cfg.id == 0 {
		return nil
	}
	m, r := indexOf(cfg).lookup(cfg)
	if r == nil {
		return nil
	}
	if st := r.steps.Load(); st != nil {
		return st
	}
	sc := m.getScratch()
	st := m.stepsOf(r, cfg, sc)
	m.putScratch(sc)
	return st
}

// SoleRequest returns the Request that is cfg's one and only enabled
// action together with its request α, or false when cfg has no head,
// several, or a single head of another kind. It is what the partial-order
// reduction asks of every process in every state: an interned
// configuration answers from its step table, any other stops at the
// second head and builds nothing but α.
func SoleRequest[S any](cfg Config[S]) (*Request[S], Msg, bool) {
	if st := cachedSteps(cfg); st != nil {
		if len(st.acts) != 1 || len(st.offers) != 1 {
			return nil, nil, false
		}
		return st.offers[0].req, st.offers[0].alpha, true
	}
	var buf [2]Head[S]
	hs := appendHeads(buf[:0], nil, cfg.Stack, cfg.Data, len(buf))
	if len(hs) != 1 {
		return nil, nil, false
	}
	r, ok := hs[0].Act.(*Request[S])
	if !ok {
		return nil, nil, false
	}
	return r, r.Act(cfg.Data), true
}

// AtLabels returns the labels of all action commands enabled at the top of
// the configuration. It implements the paper's "at p ℓ" predicate: process
// p is at ℓ iff ℓ ∈ AtLabels of p's configuration.
func AtLabels[S any](cfg Config[S]) []string {
	var buf [headScratch]Com[S]
	acts := headActs(buf[:0], cfg)
	out := make([]string, len(acts))
	for i, a := range acts {
		out[i] = a.Label()
	}
	return out
}

// At reports whether the configuration is at a command labeled ℓ.
func At[S any](cfg Config[S], label string) bool {
	var buf [headScratch]Com[S]
	for _, a := range headActs(buf[:0], cfg) {
		if a.Label() == label {
			return true
		}
	}
	return false
}

// headActs returns the actions of cfg's heads in program order: an
// interned configuration's cached list, or the enumeration appended to
// dst.
func headActs[S any](dst []Com[S], cfg Config[S]) []Com[S] {
	if st := cachedSteps(cfg); st != nil {
		return st.acts
	}
	var buf [headScratch]Head[S]
	hs := AppendHeads(buf[:0], cfg.Stack, cfg.Data)
	for i := range hs {
		dst = append(dst, hs[i].Act)
	}
	return dst
}

// Terminated reports whether the process has no commands left to run.
func Terminated[S any](cfg Config[S]) bool {
	return top(settle(nil, cfg.Stack, cfg.Data)) == nil
}
