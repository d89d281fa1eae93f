package gcmodel

import (
	"repro/internal/cimp"
)

// This file is the model's side of the TSO-aware partial-order reduction
// (ample-set style; package explore wires it behind Options.Reduce).
// AmpleChoice inspects a state and, when some process's only enabled
// action is a safe request, nominates that single transition as the
// ample set. The checker then pursues only it, skipping the
// interleavings of other processes' steps against it.
//
// A nominated step a at state s must meet the condition that
// analysis.Validator.CheckAmple executes at every nominated state of a
// validated run (gcmc -validate-effects):
//
//   - a is its process's only enabled action and has exactly one
//     successor;
//   - a disables no other step enabled at s;
//   - every other step t enabled at s that leaves a enabled commutes
//     with it: t then a and a then t reach the same state;
//   - a is not a buffered write to fA, fM or phase. The tso_control
//     invariant and the GC-view colour read control writes out of the
//     writer's buffer, so where the enqueue falls decides which states
//     the battery is evaluated on. Both orders still reach equal states,
//     so running them cannot show this; the check asserts it directly.
//
// Another step may disable a. The one case in this model is a mutator's
// lock acquire against the collector's read of a control word,
// nominated while the lock is free (mut0_delbar_lock against
// gc_mark_load_fM). It is still sound. The read changes only the
// collector's own local state, which no other process reads, so it
// neither disables nor alters any other step. The mutator's locked
// instruction ends in an unlock, which re-enables the read, and the
// read then returns the same value: the collector is the sole writer of
// the control words and is parked at the read, so the value is its
// newest write, buffered or committed, whatever the others did. A path
// that takes the lock first therefore reaches, once the read fires, the
// state that the read-first path reaches after the same steps.
//
// The safe kinds (safeRequest):
//
//   - RWrite to a heap location (LField or LMark) while the buffer has
//     room: the store appends to the requester's own FIFO buffer, whose
//     only other operation is the dequeue of its oldest entry. Under the
//     SCMemory oracle writes commit at once and are never safe.
//   - RRead while the lock is free or the requester's: any read by the
//     lock holder (every other memory operation is blocked), and the
//     collector's reads of fA, fM and phase. Store forwarding alone does
//     NOT make a read safe: in a skipped interleaving the forwarded
//     entries can drain and another process overwrite the location.
//   - RMFence with an empty buffer: a pure control advance.
//   - RUnlock by the owner with an empty buffer: it only enables other
//     processes' steps.
//
// Safe chains always terminate: every loop of the collector's and the
// mutators' programs contains a step that is never safe (handshake
// signals and polls, lock acquisition, unforwarded heap loads), so the
// reduction has no ignoring problem. Reduced exploration visits a subset
// of the full state space, so it reports no spurious violation; verdict
// equality against full exploration is tested differentially (package
// diffcheck).

// Ample is the partial-order-reduction oracle's verdict on one state:
// when OK, the transition relation restricted to process Proc firing
// the request labeled Label is a sound ample set, and the checker may
// ignore every other transition of the state.
type Ample struct {
	Proc  cimp.PID
	Label string
	OK    bool
}

// Matches reports whether a transition event is the ample transition.
func (a Ample) Matches(ev cimp.Event) bool {
	return a.OK && !ev.Tau() && ev.Proc == a.Proc && ev.Label == a.Label
}

// AmpleChoice nominates an ample transition for st, or OK=false when no
// process has a safe singleton action and the state needs full
// expansion. It is a pure function of the state — deterministic across
// workers and re-runs — and reads st without modifying it.
func (m *Model) AmpleChoice(st cimp.System[*Local]) Ample {
	sys := st.Procs[len(st.Procs)-1].Data.Sys
	// Scan the collector and the mutators in PID order; the system
	// process itself always has multiple heads (its reactive Choose).
	for p := 0; p < len(st.Procs)-1; p++ {
		r, alpha, ok := cimp.SoleRequest(st.Procs[p])
		if !ok {
			// A non-deterministic choice is pending, the sole head is a
			// LocalOp, or the process has terminated: not reducible.
			continue
		}
		req, ok := alpha.(Req)
		if !ok {
			continue
		}
		if m.safeRequest(sys, req) {
			return Ample{Proc: cimp.PID(p), Label: r.Label(), OK: true}
		}
	}
	return Ample{}
}

// safeRequest classifies a request as safe in the system state s. See
// the file comment for the condition and the argument per kind.
func (m *Model) safeRequest(s *SysLocal, r Req) bool {
	p := r.P
	switch r.Kind {
	case RWrite:
		if m.Cfg.SCMemory {
			return false // SC commits immediately: visible
		}
		if r.Loc.Kind != LField && r.Loc.Kind != LMark {
			return false // buffered control writes are observable
		}
		// Enabled iff the bounded buffer has room; other processes can
		// only drain it, never fill it.
		return m.Cfg.MaxBuf == 0 || len(s.Bufs[p]) < m.Cfg.MaxBuf
	case RRead:
		if !notBlocked(s, p) {
			return false // disabled: another process holds the lock
		}
		if s.Lock == p {
			return true // lock-shielded: memory is frozen for others
		}
		if p == GCPID && (r.Loc.Kind == LFA || r.Loc.Kind == LFM || r.Loc.Kind == LPhase) {
			return true // single-writer control variable
		}
		return false
	case RMFence:
		return len(s.Bufs[p]) == 0
	case RUnlock:
		return s.Lock == p && len(s.Bufs[p]) == 0
	}
	return false
}
