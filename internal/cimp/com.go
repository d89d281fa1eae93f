// Package cimp implements CIMP, the small imperative language of Gammie,
// Hosking and Engelhardt (PLDI 2015) used to model the on-the-fly garbage
// collector, its mutators, and the x86-TSO memory system.
//
// CIMP extends IMP with process-algebra-style rendezvous (synchronous
// message passing), control and data non-determinism, and flat parallel
// composition of processes. Its operational semantics is given in two
// equivalent forms, both implemented here:
//
//   - a faithful small-step semantics over frame stacks (paper Figure 7),
//     in which sequential composition and control constructs unfold one
//     frame at a time; see smallstep.go.
//   - a derived evaluation-context ("atomic action") semantics, in which
//     deterministic control is folded away so that every transition is a
//     LocalOp, or one half of a Request/Response rendezvous; see step.go.
//     The model checker runs on this semantics.
//
// Each process has a private control state (a frame stack of commands) and
// a private data state of type S. There is no shared global state: all
// sharing is mediated by rendezvous with a distinguished system process
// (see package tso and package gcmodel).
//
// Commands carry string labels, written {ℓ} in the paper, which the
// invariants of package invariant use via the "at p ℓ" predicate.
package cimp

// Msg is a value exchanged at a rendezvous: the request α computed by the
// sender and the response β computed by the receiver. Concrete models
// define their own request/response types.
type Msg any

// Com is a CIMP command over local data states of type S.
//
// Step functions supplied inside commands (LocalOp.F, Request.Act,
// Request.Ret, Response.F, and all boolean conditions) must treat their
// argument as read-only: successor states must be freshly allocated, or
// share only structure that is never subsequently mutated. The step engine
// does not clone on behalf of commands.
type Com[S any] interface {
	// Label returns the command's label, or "" for unlabeled control
	// (Seq, Loop, Choose).
	Label() string
	// meta returns the slot the command carries for its Index (nil for
	// Skip, which is stateless and so is one command however many times
	// it is written).
	meta() *node[S]
}

// node is the per-command slot NewIndex fills in once per model: the
// command's identity and its static unfolding (see index.go). It is
// written only while the index is built and read-only afterwards, so
// concurrent steppers share it freely.
type node[S any] struct {
	ix   *Index[S] // owning index; nil until NewIndex has visited the command
	id   int
	pre  []Com[S]  // static unfolding; capacity == length, never appended to
	self [1]Com[S] // backing store for the unfolding of a command that is its own
}

func (n *node[S]) meta() *node[S] { return n }

// LocalOp is {ℓ} LOCALOP R: a non-deterministic local computation. F maps
// the current local data state to the set of possible successor states.
// An empty result means the operation is not enabled (blocked).
//
// Fuse marks the operation as a register-only step that touches no state
// observable by other processes; the system semantics may merge it into
// the preceding transition of the same process (see System.Successors).
type LocalOp[S any] struct {
	node[S]
	L    string
	F    func(S) []S
	Fuse bool
}

// Request is {ℓ} REQUEST act val: the sending half of a rendezvous.
// Act computes the request α from the local state; after the receiver
// produces a response β, Ret computes the set of possible successor local
// states. An empty Ret result refuses the response (the rendezvous does
// not happen).
type Request[S any] struct {
	node[S]
	L   string
	Act func(S) Msg
	Ret func(S, Msg) []S
}

// Response is {ℓ} RESPONSE act: the receiving half of a rendezvous. Given
// the request α and the local state, F yields the set of possible
// (successor state, response β) pairs. An empty result means this response
// cannot answer α in the current state.
type Response[S any] struct {
	node[S]
	L string
	F func(S, Msg) []Reply[S]
}

// Reply pairs a successor local state with the response message β sent
// back to the requester.
type Reply[S any] struct {
	S   S
	Msg Msg
}

// Seq is c1 ;; c2, sequential composition.
type Seq[S any] struct {
	node[S]
	A, B Com[S]
}

// Cond is {ℓ} IF C THEN Then ELSE Else. The condition is a pure function
// of the local data state and is evaluated as part of control unfolding in
// the atomic-action semantics, or as its own τ step in the small-step
// semantics.
type Cond[S any] struct {
	node[S]
	L          string
	C          func(S) bool
	Then, Else Com[S]
}

// While is {ℓ} WHILE C DO Body.
type While[S any] struct {
	node[S]
	L    string
	C    func(S) bool
	Body Com[S]
}

// Loop is LOOP Body: infinite repetition, used for the collector's
// non-terminating outer loop and the mutators' top-level choice. Body must
// contain at least one action command on every control path, otherwise
// control unfolding would diverge.
type Loop[S any] struct {
	node[S]
	Body Com[S]
}

// Choose is non-deterministic choice between alternatives (the ⊔ operator
// of paper Figure 9). The choice is resolved at step time: any enabled
// action of any alternative may fire.
type Choose[S any] struct {
	node[S]
	Alts []Com[S]
}

// Skip is the empty command; it unfolds to nothing.
type Skip[S any] struct{}

func (c *LocalOp[S]) Label() string  { return c.L }
func (c *Request[S]) Label() string  { return c.L }
func (c *Response[S]) Label() string { return c.L }
func (c *Seq[S]) Label() string      { return "" }
func (c *Cond[S]) Label() string     { return c.L }
func (c *While[S]) Label() string    { return c.L }
func (c *Loop[S]) Label() string     { return "" }
func (c *Choose[S]) Label() string   { return "" }
func (c *Skip[S]) Label() string     { return "" }

func (*Skip[S]) meta() *node[S] { return nil }

// Seqs folds a list of commands into nested Seq nodes. Seqs() is Skip.
func Seqs[S any](cs ...Com[S]) Com[S] {
	switch len(cs) {
	case 0:
		return &Skip[S]{}
	case 1:
		return cs[0]
	default:
		return &Seq[S]{A: cs[0], B: Seqs(cs[1:]...)}
	}
}

// If2 builds a two-armed conditional.
func If2[S any](label string, c func(S) bool, then, els Com[S]) Com[S] {
	return &Cond[S]{L: label, C: c, Then: then, Else: els}
}

// If1 builds a one-armed conditional (else is Skip).
func If1[S any](label string, c func(S) bool, then Com[S]) Com[S] {
	return &Cond[S]{L: label, C: c, Then: then, Else: &Skip[S]{}}
}

// Det builds a deterministic LocalOp from an in-place update of a cloned
// state. clone must deep-copy the mutable parts of S that f touches.
// Det steps are register-only by convention and are created with Fuse
// set; other processes cannot observe them, so the system semantics may
// merge them into the preceding transition.
func Det[S any](label string, clone func(S) S, f func(S) S) *LocalOp[S] {
	return &LocalOp[S]{L: label, Fuse: true, F: func(s S) []S {
		return []S{f(clone(s))}
	}}
}
