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

// Scratch is one goroutine's reusable enumeration state: the process
// table successors are written into with the table records of its entries
// beside it, the buffer a configuration is encoded into when it has to be
// interned by its bytes, and the table lookups counted since the last
// Flush. The zero value is ready to use; a Scratch must not be copied once
// used, shared between goroutines, nor used by an enumeration started from
// inside another enumeration's yield.
type Scratch[S any] struct {
	procs []Config[S]
	recs  []*record[S] // recs[p] is procs[p]'s record, nil if it has none
	// Eight processes fit in the Scratch itself; larger systems spill to the
	// heap through append.
	recBuf [8]*record[S]
	key    []byte
	// The lookups of the enumerations since the last Flush, the index whose
	// counters they are owed to, and an arbitrary stripe of them.
	ix     *Index[S]
	tally  tally
	stripe uint32
}

// Segment returns the canonical bytes of process p of the successor sc
// currently lends — what Index.AppendConfig appends for it — without
// copying them, or false if the configuration table does not hold that
// configuration. Valid only inside yield.
func (sc *Scratch[S]) Segment(p int) (string, bool) {
	if r := sc.recs[p]; r != nil && r.key != "" {
		return r.key, true
	}
	return "", false
}

// getScratch and putScratch lend an enumeration that does not bring a
// Scratch of its own one from the index's pool, and flush it on return.
func (m *memo[S]) getScratch() *Scratch[S] {
	if m.ix != nil {
		if sc, ok := m.ix.scratch.Get().(*Scratch[S]); ok {
			return sc
		}
	}
	return &Scratch[S]{ix: m.ix}
}

func (m *memo[S]) putScratch(sc *Scratch[S]) {
	sc.Flush()
	if m.ix != nil {
		m.ix.scratch.Put(sc)
	}
}

// Flush adds the lookups counted since the last Flush to the index's
// counters. A search worker calls it every few hundred states, so the
// counters (and the table's thrash detector, which reads them) trail the
// enumerations by that much and no shared cache line is written per state.
func (sc *Scratch[S]) Flush() {
	if sc.ix != nil {
		sc.ix.count(&sc.tally, sc.stripe)
	}
	sc.tally = tally{}
}

// Successors enumerates every enabled system transition from sys,
// invoking yield with the successor system state and the event that
// produced it. Successor states share all unchanged process
// configurations with sys, and each owns its process table: the caller may
// keep them.
//
// Two rules apply (paper Figure 8):
//
//	τ:          one process takes a local step;
//	rendezvous: a Request of process p synchronizes with a Response of a
//	            distinct process q; both update local state simultaneously.
func (sys System[S]) Successors(yield func(next System[S], ev Event)) {
	sys.successors(func(next System[S], ev Event) bool {
		yield(next.CloneShallow(), ev)
		return true
	})
}

// successors is Borrowed on a Scratch lent by the index's pool.
func (sys System[S]) successors(yield func(next System[S], ev Event) bool) {
	m := sys.memo()
	sc := m.getScratch()
	sys.borrowed(m, sc, yield)
	m.putScratch(sc)
}

// Borrowed is Successors for a caller that looks at most successors and
// keeps few — a search, whose successors are mostly states it has already
// visited. Every successor is handed to yield in sc's one process table,
// which the enumeration overwrites as soon as yield returns: next is valid
// only during the call, and a caller that keeps it takes next.CloneShallow().
// Enumeration stops as soon as yield returns false. The lookups are counted
// in sc; the caller owes a Flush.
//
// Each process's configuration is resolved to its record in the
// configuration table (memo.go) and its step table read — or, for a
// configuration the table has not seen, computed — exactly once; a τ step
// is one of a process's cached τ successors, and a rendezvous pairs a
// Request head of p with the replies of q to its α and p's continuations
// on each β. Transitions are yielded in PID order, τ steps before
// rendezvous, heads in program order, replies and accepted states in
// handler order — the order of the uncached enumeration, which is what
// fills the table.
func (sys System[S]) Borrowed(sc *Scratch[S], yield func(next System[S], ev Event) bool) {
	sys.borrowed(sys.memo(), sc, yield)
}

func (sys System[S]) borrowed(m *memo[S], sc *Scratch[S], yield func(next System[S], ev Event) bool) {
	sc.ix = m.ix
	if sc.recs == nil {
		sc.recs = sc.recBuf[:0]
	}
	// Eight processes fit on the frame; larger systems spill to the heap
	// through append.
	var stepBuf [8]*steps[S]
	recs, sts := sc.recs[:0], stepBuf[:0]
	// The borrowed table starts as sys's own, with every process that has a
	// record replaced by the interned configuration: a hand-built or decoded
	// state, or one that outlived its table, hands its successors ids that
	// resolve from here on.
	procs := append(sc.procs[:0], sys.Procs...)
	sc.procs = procs
	for p, cfg := range sys.Procs {
		r := m.intern(cfg, sc)
		if r != nil {
			sc.stripe = sc.stripe*31 + r.cfg.id
			procs[p] = r.cfg
		}
		recs = append(recs, r)
		sts = append(sts, m.stepsOf(r, cfg, sc))
	}
	sc.recs = recs
	System[S]{Procs: procs, DisableFusion: sys.DisableFusion}.enumerate(m, sts, sc, yield)
}

// memo returns the configuration table the system's processes are stepped
// through: that of the first process whose program names an Index, under
// the system's fusion setting. Processes of another Index (or of none:
// terminated ones) are stepped without a record.
func (sys System[S]) memo() *memo[S] {
	for _, cfg := range sys.Procs {
		if ix := indexOf(cfg); ix != nil {
			return ix.memo(!sys.DisableFusion)
		}
	}
	return &memo[S]{fusion: !sys.DisableFusion}
}

// enumerate yields sys's transitions, writing each successor into
// sys.Procs and sc.recs — the caller's scratch table — and restoring the
// entries it changed once yield has returned.
func (sys System[S]) enumerate(m *memo[S], sts []*steps[S], sc *Scratch[S], yield func(next System[S], ev Event) bool) {
	procs, recs := sys.Procs, sc.recs
	for p, cfg := range procs {
		pid := PID(p)
		st, rp := sts[p], recs[p]
		for i := range st.taus {
			procs[p], recs[p] = st.taus[i].next.cfg, st.taus[i].next
			ok := yield(sys, Event{Proc: pid, Peer: -1, Label: st.taus[i].op.L})
			procs[p], recs[p] = cfg, rp
			if !ok {
				return
			}
		}
		for i := range st.offers {
			o := &st.offers[i]
			for q, peer := range procs {
				if q == p || sts[q].nresp == 0 {
					continue
				}
				rq := recs[q]
				replies := m.repliesOf(rq, peer, o, sc)
				for j := range replies {
					r := &replies[j]
					// An empty answer means the requester refuses this response.
					for _, c := range m.contsOf(rp, cfg, o, r, sc) {
						procs[p], procs[q] = c.next.cfg, r.next.cfg
						recs[p], recs[q] = c.next, r.next
						ok := yield(sys, Event{
							Proc: pid, Peer: PID(q),
							Label: o.req.L, PeerLabel: r.resp.L,
							Alpha: o.alpha, Beta: r.beta,
						})
						procs[p], procs[q] = cfg, peer
						recs[p], recs[q] = rp, rq
						if !ok {
							return
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
