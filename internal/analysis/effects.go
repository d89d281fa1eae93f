package analysis

import (
	"strings"

	"repro/internal/gcmodel"
)

// LocClass is a bitmask of shared-memory location classes, the
// granularity at which the static analyses reason about addresses. The
// three control words are singleton classes (one address each); LMark
// and LField cover one address per object/field, so a class match there
// does not imply an address match.
type LocClass uint8

const (
	ClassFA LocClass = 1 << iota
	ClassFM
	ClassPhase
	ClassMark
	ClassField
)

// ClassControl is the GC control words fA, fM and phase.
const ClassControl = ClassFA | ClassFM | ClassPhase

// ClassAny is every location class.
const ClassAny = ClassControl | ClassMark | ClassField

// ObservedBuffered is the set of classes whose *buffered* writes are
// observable by the verification itself: the tso_control invariant and
// the GC-view color abstraction read control writes out of the writer's
// buffer, so enqueue order against other processes' steps is visible.
// Validator.CheckAmple therefore refuses an ample step that stores to
// one of these classes through the buffer. Running both orders cannot
// show the problem: the two orders reach equal states, and what differs
// is which states the battery is evaluated on.
const ObservedBuffered = ClassControl

// ClassOf maps a location kind to its class bit.
func ClassOf(k gcmodel.LocKind) LocClass {
	switch k {
	case gcmodel.LFA:
		return ClassFA
	case gcmodel.LFM:
		return ClassFM
	case gcmodel.LPhase:
		return ClassPhase
	case gcmodel.LMark:
		return ClassMark
	case gcmodel.LField:
		return ClassField
	}
	return 0
}

// SingleAddress reports whether the class set denotes exactly one
// memory address (a single control word), so that a write and a read
// within the set are guaranteed same-address accesses.
func (c LocClass) SingleAddress() bool {
	return c == ClassFA || c == ClassFM || c == ClassPhase
}

func (c LocClass) String() string {
	if c == 0 {
		return "none"
	}
	var parts []string
	for _, e := range [...]struct {
		bit  LocClass
		name string
	}{
		{ClassFA, "fA"}, {ClassFM, "fM"}, {ClassPhase, "phase"},
		{ClassMark, "mark"}, {ClassField, "field"},
	} {
		if c&e.bit != 0 {
			parts = append(parts, e.name)
		}
	}
	return strings.Join(parts, "|")
}

// KindEffect is the declared memory-system footprint of one request
// kind: which shared state the system may read or write to answer it,
// and which enabledness guards and lock effects it has. The table below
// restates the semantics of gcmodel/sys.go declaratively; the Validator
// checks the restatement against every transition the checker takes.
type KindEffect struct {
	// Reads and Writes are the shared TSO location classes the answer
	// may read or modify. Buffered distinguishes stores that go to the
	// requester's own store buffer from direct memory effects.
	Reads, Writes LocClass
	Buffered      bool

	// FlushGuard: answered only when the requester's buffer is empty.
	// LockGuard: answered only when no other process holds the TSO lock.
	FlushGuard bool
	LockGuard  bool

	// Lock effects (the locked-instruction prefix).
	AcquiresLock bool
	ReleasesLock bool

	// Handshake-mailbox effects (not subject to TSO, paper §3.1).
	HSRead, HSWrite bool

	// Heap-domain effects: allocation, free, and domain snapshots.
	HeapDomRead, HeapDomWrite bool
}

// KindEffects returns the declared per-kind effect table, indexed by
// ReqKind. The exhaustiveness test checks that every kind has a
// non-zero entry here and a String case, so a kind added to gcmodel
// without a declaration fails fast.
func KindEffects() [gcmodel.NumReqKinds]KindEffect {
	var t [gcmodel.NumReqKinds]KindEffect
	t[gcmodel.RRead] = KindEffect{Reads: ClassAny, LockGuard: true}
	t[gcmodel.RWrite] = KindEffect{Writes: ClassAny, Buffered: true}
	t[gcmodel.RMFence] = KindEffect{FlushGuard: true}
	t[gcmodel.RLock] = KindEffect{AcquiresLock: true}
	t[gcmodel.RUnlock] = KindEffect{ReleasesLock: true, FlushGuard: true}
	// Alloc reads f_A (or f_M under AllocWhite) to pick the new flag and
	// creates the object: a direct (unbuffered) mark+fields write plus a
	// heap-domain extension.
	t[gcmodel.RAlloc] = KindEffect{
		Reads: ClassFA | ClassFM, Writes: ClassMark | ClassField,
		LockGuard: true, HeapDomWrite: true,
	}
	t[gcmodel.RFree] = KindEffect{
		Writes: ClassMark | ClassField, LockGuard: true, HeapDomWrite: true,
	}
	t[gcmodel.RRefsSnapshot] = KindEffect{LockGuard: true, HeapDomRead: true}
	t[gcmodel.RHsStart] = KindEffect{HSWrite: true}
	t[gcmodel.RHsSignal] = KindEffect{HSWrite: true}
	t[gcmodel.RHsPoll] = KindEffect{HSRead: true}
	t[gcmodel.RHsDone] = KindEffect{HSRead: true, HSWrite: true}
	t[gcmodel.RHsWaitAll] = KindEffect{HSRead: true, HSWrite: true}
	return t
}

// RespLabels returns the declared system response label for each
// request kind. Extraction checks that exactly these labels appear as
// Response commands in the built system program, and the Validator
// checks every rendezvous pairs a request kind with its declared
// responder label.
func RespLabels() [gcmodel.NumReqKinds]string {
	var t [gcmodel.NumReqKinds]string
	t[gcmodel.RRead] = "sys-read"
	t[gcmodel.RWrite] = "sys-write"
	t[gcmodel.RMFence] = "sys-mfence"
	t[gcmodel.RLock] = "sys-lock"
	t[gcmodel.RUnlock] = "sys-unlock"
	t[gcmodel.RAlloc] = "sys-alloc"
	t[gcmodel.RFree] = "sys-free"
	t[gcmodel.RRefsSnapshot] = "sys-refs"
	t[gcmodel.RHsStart] = "sys-hs-start"
	t[gcmodel.RHsSignal] = "sys-hs-signal"
	t[gcmodel.RHsPoll] = "sys-hs-poll"
	t[gcmodel.RHsDone] = "sys-hs-done"
	t[gcmodel.RHsWaitAll] = "sys-hs-wait-all"
	return t
}

// kindHasLoc reports whether Req.Loc is meaningful for the kind (and
// so whether a Site carries a location class to validate).
func kindHasLoc(k gcmodel.ReqKind) bool {
	return k == gcmodel.RRead || k == gcmodel.RWrite || k == gcmodel.RFree
}
