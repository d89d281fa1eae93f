// Package gcmodel implements the paper's formal model of the on-the-fly
// mark-sweep garbage collector: the collector process (Figures 2 and 10),
// the mark operation (Figure 5), mutator processes (Figure 6), the soft
// handshake machinery (Figures 3 and 4), and the x86-TSO system process
// (Figure 9), all expressed as CIMP programs (package cimp) composed in
// parallel:
//
//	GC ∥ M1 ∥ … ∥ Mn ∥ Sys
//
// Process identifiers: PID 0 is the collector, PIDs 1..n are the mutators,
// and PID n+1 is the system. The system encapsulates the TSO store
// buffers, the shared memory (heap, mark flags, and the control variables
// fA, fM, phase — all subject to TSO), the TSO lock, allocation, and the
// handshake mailboxes. Work-lists and handshake state are not subject to
// TSO, following the paper (§3.1).
package gcmodel

import (
	"fmt"

	"repro/internal/cimp"
	"repro/internal/heap"
)

// Phase is the collector's control state, stored in shared memory and
// therefore subject to TSO.
type Phase int

const (
	PhIdle Phase = iota
	PhInit
	PhMark
	PhSweep
)

func (p Phase) String() string {
	switch p {
	case PhIdle:
		return "Idle"
	case PhInit:
		return "Init"
	case PhMark:
		return "Mark"
	case PhSweep:
		return "Sweep"
	}
	return fmt.Sprintf("Phase(%d)", int(p))
}

// HSType is the handshake type: what work the mutators perform on the
// collector's behalf when they accept the handshake (§2.2, §3.1).
type HSType int

const (
	// HSNoop asks for a bare acknowledgement.
	HSNoop HSType = iota
	// HSGetRoots asks each mutator to mark its roots into its private
	// work-list and transfer the list to the system.
	HSGetRoots
	// HSGetWork asks each mutator to transfer its private work-list
	// (greys accumulated by write barriers) to the system.
	HSGetWork
)

func (t HSType) String() string {
	switch t {
	case HSNoop:
		return "noop"
	case HSGetRoots:
		return "get-roots"
	case HSGetWork:
		return "get-work"
	}
	return fmt.Sprintf("HSType(%d)", int(t))
}

// HandshakePhase is the ghost per-mutator handshake phase of Figure 3
// (bottom row), advanced each time the mutator completes a handshake.
// The paper's sys_phase_inv and mutator_phase_inv are stated over it.
type HandshakePhase int

const (
	// HpIdle: the mutator has completed the start-of-cycle noop
	// handshake (or the system is in its initial state).
	HpIdle HandshakePhase = iota
	// HpIdleInit: completed the handshake following the f_M flip.
	HpIdleInit
	// HpInitMark: completed the handshake following phase ← Init.
	HpInitMark
	// HpIdleMarkSweep: completed the handshake following phase ← Mark
	// and f_A ← f_M; covers root marking, the mark loop, and sweep.
	HpIdleMarkSweep
)

func (p HandshakePhase) String() string {
	switch p {
	case HpIdle:
		return "hp_Idle"
	case HpIdleInit:
		return "hp_IdleInit"
	case HpInitMark:
		return "hp_InitMark"
	case HpIdleMarkSweep:
		return "hp_IdleMarkSweep"
	}
	return fmt.Sprintf("HandshakePhase(%d)", int(p))
}

// RoundTag is the ghost identity of a handshake round within a collector
// cycle, used to advance the mutators' HandshakePhase and by the
// invariants to know which round is in flight.
type RoundTag int

const (
	TagNone     RoundTag = iota // no handshake initiated yet
	TagIdle                     // round 1: noop at start of cycle
	TagIdleInit                 // round 2: noop after f_M flip
	TagInitMark                 // round 3: noop after phase ← Init
	TagMark                     // round 4: noop after phase ← Mark, f_A ← f_M
	TagRoots                    // round 5: get-roots
	TagWork                     // rounds 6+: get-work (mark loop termination)
)

func (t RoundTag) String() string {
	switch t {
	case TagNone:
		return "none"
	case TagIdle:
		return "idle"
	case TagIdleInit:
		return "idle-init"
	case TagInitMark:
		return "init-mark"
	case TagMark:
		return "mark"
	case TagRoots:
		return "roots"
	case TagWork:
		return "work"
	}
	return fmt.Sprintf("RoundTag(%d)", int(t))
}

// LocKind classifies shared memory locations subject to TSO.
type LocKind int

const (
	LFA LocKind = iota
	LFM
	LPhase
	LMark  // the mark flag of object R
	LField // field F of object R
)

// Loc is a shared memory location.
type Loc struct {
	Kind LocKind
	R    heap.Ref
	F    heap.Field
}

func (l Loc) String() string {
	switch l.Kind {
	case LFA:
		return "fA"
	case LFM:
		return "fM"
	case LPhase:
		return "phase"
	case LMark:
		return fmt.Sprintf("flag(%d)", l.R)
	case LField:
		return fmt.Sprintf("%d.%d", l.R, l.F)
	}
	return "?loc"
}

// Val is a shared-memory value: a bool, Phase, or Ref encoded as an
// integer according to the location's kind.
type Val int64

// BoolVal encodes a boolean value.
func BoolVal(b bool) Val {
	if b {
		return 1
	}
	return 0
}

// PhaseVal encodes a Phase value.
func PhaseVal(p Phase) Val { return Val(p) }

// RefVal encodes a reference (NilRef is -1).
func RefVal(r heap.Ref) Val { return Val(r) }

// Bool decodes a boolean value.
func (v Val) Bool() bool { return v != 0 }

// Phase decodes a Phase value.
func (v Val) Phase() Phase { return Phase(v) }

// Ref decodes a reference value.
func (v Val) Ref() heap.Ref { return heap.Ref(v) }

// WAct is a pending write action in a TSO store buffer (Figure 9's
// write actions).
type WAct struct {
	Loc Loc
	Val Val
}

func (w WAct) String() string { return fmt.Sprintf("%v←%d", w.Loc, int64(w.Val)) }

// MarkState is the state of the mark operation (Figure 5), the same for
// the collector and the mutators: its registers and its ghost state.
type MarkState struct {
	MRef   heap.Ref // ref — the reference being marked
	MFM    bool     // loaded f_M
	MFlag  bool     // loaded flag(ref)
	MPhase Phase    // loaded phase
	Winner bool     // whether this thread won the CAS

	// Ghost state.
	GHG       heap.Ref // ghost_honorary_grey (Figure 5 lines 9/14), NilRef if none
	InMark    bool     // inside the mark operation
	InMarkDel bool     // the in-flight mark is a deletion barrier (its MRef is a root, §3.2)
}

// MutLocal is a mutator's private data state: its roots and work-list,
// the registers of the in-flight operation, and ghost state.
type MutLocal struct {
	Roots heap.RefSet // local variables holding references (stack+registers)
	WM    heap.RefSet // private grey work-list W_m

	MarkState

	// Registers of the Store operation (Figure 6).
	SSrc   heap.Ref   // src object
	SFld   heap.Field // field being written
	SDst   heap.Ref   // new value
	TmpRef heap.Ref   // old value of src.fld, loaded for the deletion barrier

	// Register for iterating roots during the get-roots handshake.
	PendRoots heap.RefSet

	// Registers of the handshake poll (Figure 4).
	HSP   bool     // loaded pending bit
	HSTy  HSType   // loaded handshake type
	HSTag RoundTag // loaded ghost round tag

	// OpsLeft is the remaining per-cycle heap-operation budget
	// (Config.OpBudget); 0 disables further operations until the budget
	// refills at the start-of-cycle handshake. Unused (stays 0) when the
	// budget is unbounded.
	OpsLeft int

	// Ghost state.
	HP        HandshakePhase // handshake phase (Figure 3)
	RootsDone bool           // completed the get-roots handshake this cycle
}

// GCLocal is the collector's private data state.
type GCLocal struct {
	W heap.RefSet // the collector's work-list

	// Local copies of the control state the collector last wrote; these
	// shadow its own buffered writes and are used only by ghost logic.
	FM, FA bool
	Phase  Phase

	MarkState

	// Mark-loop registers (Figures 2 and 10).
	Src    heap.Ref    // current grey source object
	FldIdx int         // field iteration index
	TmpRef heap.Ref    // field value loaded from Src
	Sweep  heap.RefSet // references remaining to sweep
	SwRef  heap.Ref    // current sweep candidate
	SwFlag bool        // its loaded flag

	// Handshake registers.
	MutIdx int // next mutator to signal in the current round
}

// SysLocal is the system process's data state: shared memory, TSO buffers
// and lock, the handshake mailboxes, and the global work-list.
type SysLocal struct {
	Heap  heap.Heap
	FA    bool
	FM    bool
	Phase Phase

	// Bufs are the TSO store buffers, indexed by PID (the system's own
	// entry is unused: the system never issues TSO writes).
	Bufs [][]WAct
	// Lock is the TSO lock owner, or -1.
	Lock cimp.PID

	// Handshake state (not subject to TSO, §3.1).
	HSType  HSType
	Tag     RoundTag
	Pending []bool // per-mutator handshake-pending bits

	// W is the system-held work-list into which mutators transfer their
	// private lists and from which the collector loads.
	W heap.RefSet
}

// Local is the shared CIMP local-state type: exactly one of Mut, GC, Sys
// is populated, according to the process's role (the Isabelle development
// likewise uses a single local-state record for all processes).
type Local struct {
	Self cimp.PID
	Mut  *MutLocal
	GC   *GCLocal
	Sys  *SysLocal
}

// Clone deep-copies the populated role state.
func (l *Local) Clone() *Local {
	n := &Local{Self: l.Self}
	switch {
	case l.Mut != nil:
		m := *l.Mut
		n.Mut = &m
	case l.GC != nil:
		g := *l.GC
		n.GC = &g
	case l.Sys != nil:
		s := *l.Sys
		s.Heap = l.Sys.Heap.Clone()
		s.Bufs = make([][]WAct, len(l.Sys.Bufs))
		for i, b := range l.Sys.Bufs {
			if len(b) > 0 {
				s.Bufs[i] = append([]WAct(nil), b...)
			}
		}
		s.Pending = append([]bool(nil), l.Sys.Pending...)
		n.Sys = &s
	}
	return n
}

// --- Accessors shared between the collector's and mutators' mark code ---

// worklist returns the work-list the mark operation at l adds to.
func (l *Local) worklist() *heap.RefSet {
	if l.Mut != nil {
		return &l.Mut.WM
	}
	return &l.GC.W
}

// mark returns the state of the mark operation at the collector or
// mutator l.
func (l *Local) mark() *MarkState {
	if l.Mut != nil {
		return &l.Mut.MarkState
	}
	return &l.GC.MarkState
}

// resetMark clears the mark operation's state, so completed marks leave
// no dead-register residue to distinguish otherwise-identical states.
func (l *Local) resetMark() { *l.mark() = MarkState{MRef: heap.NilRef, GHG: heap.NilRef} }
