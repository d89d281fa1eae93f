package gcmodel

import (
	"repro/internal/cimp"
)

// This file is the model's side of the TSO-aware partial-order reduction
// (ample-set style, package explore wires it behind Options.Reduce). The
// oracle AmpleChoice inspects a state and, when some process's only
// enabled action is a "safe" interaction with the memory system — one
// that is invisible to every other process and commutes with all of
// their enabled transitions — nominates that single transition as the
// ample set. The checker then pursues only it, skipping the
// interleavings of unrelated steps against it.
//
// A request is safe when it satisfies all of the classic ample-set
// conditions with respect to the x86-TSO semantics of sys.go:
//
//   - it is the process's unique enabled action (cimp.SoleRequest, and
//     Request.Ret in this model always yields exactly one state);
//   - it is currently enabled and cannot be disabled by other
//     processes' transitions;
//   - it neither observes nor modifies state that any other process's
//     enabled transition observes or modifies, so it commutes with all
//     of them.
//
// The safe kinds, and why they qualify under TSO:
//
//   - RWrite to a heap location (LField or LMark): the store is only
//     appended to the requester's own FIFO buffer. No other process
//     reads another's buffer; the only other operation on this buffer
//     is the system's dequeue of its *oldest* entry, which commutes
//     with appending at the tail. Control-variable writes (f_A, f_M,
//     phase) are excluded: the tso_control invariant and the GC-view
//     color abstraction read buffered control writes, so their enqueue
//     order against other processes' steps is observable. Under the
//     SCMemory oracle writes commit immediately and nothing is safe.
//   - RRead whose value cannot depend on the interleaving: any read
//     while the requester holds the TSO lock (memory commits, SC
//     writes, allocation, free and snapshots by every other process
//     are disabled by the notBlocked guard, and the requester's own
//     commits are shadowed by store forwarding); and the collector's
//     reads of f_A, f_M and phase, of which it is the sole writer (a
//     control variable's value is the collector's newest write,
//     buffered or committed — invariant under drains and untouched by
//     mutators). Reads change no shared state at all, so they commute
//     with every enabled transition of every other process. Note that
//     store forwarding alone does NOT make a read safe: in a skipped
//     interleaving the requester's matching buffer entries can drain
//     and another process can then overwrite the location, changing
//     the value the read returns.
//   - RMFence with an empty buffer: a pure control advance. Only the
//     requester could refill its own buffer, and it is standing at the
//     fence.
//   - RUnlock (owner, empty buffer): resets the lock to free. Every
//     transition of another process that is enabled while the lock is
//     held neither reads nor writes the lock word (blocked memory
//     operations are disabled, not conditional), so the release
//     commutes with all of them; it can only enable transitions, never
//     disable them.
//
// Safe chains always terminate: every safe step deterministically
// advances its process's control stack toward a non-safe head (each
// loop body in the collector's and mutators' programs contains
// rendezvous that are never safe — handshake signals and polls, lock
// acquisition, unforwarded heap loads), so the reduction has no
// "ignoring" problem: within finitely many ample steps the checker is
// back to full expansion. Reduced exploration therefore visits a
// subset of the full reachable state space (no spurious violations);
// verdict equality against full exploration is validated continuously
// by the differential harness in package diffcheck.

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

// SafeRequest exposes the handwritten safe classification for
// cross-checking: package analysis re-derives the same classification
// from the declared-effects table and diffs the two at every reachable
// state (the por-safe-class rule), so a drift between this function and
// the documented commutation argument is caught dynamically.
func (m *Model) SafeRequest(s *SysLocal, r Req) bool { return m.safeRequest(s, r) }

// safeRequest classifies a request as safe (invisible, enabled, and
// undisablable) in the system state s. See the file comment for the
// soundness argument per kind.
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
