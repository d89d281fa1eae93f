package gcmodel

import (
	"repro/internal/cimp"
	"repro/internal/heap"
)

// markCom builds the mark operation of paper Figure 5 as a CIMP program,
// shared verbatim by the collector (mark loop), the mutators' write
// barriers, and the mutators' root-marking handshake handler:
//
//	mark(ref, w):
//	    expected ← not f_M
//	    if flag(ref) = expected
//	        if phase ≠ Idle
//	            atomic // CAS (TSO lock ... unlock)
//	                if flag(ref) = expected // we win
//	                    winner ← true
//	                    flag(ref) ← f_M
//	                    // ghost_honorary_grey ← ref
//	                else winner ← false
//	    if winner
//	        w ← w ∪ {ref}
//	        // ghost_honorary_grey ← null
//
// f_M, flag(ref) and phase are loaded through the TSO machinery; the CAS
// is spelled out as lock / re-load / compare / buffered store / unlock,
// where unlock is enabled only once the store buffer has drained, so the
// mark is globally visible when the locked instruction completes. The
// store writes the f_M value loaded at the top of the operation (it is a
// register operand of the CMPXCHG).
//
// pfx uniquely labels this call site. target fetches the reference to
// mark from the caller's registers; a NULL target skips the operation.
// del records (as ghost state) that this mark is a deletion barrier,
// whose target the safety argument treats as a root for the duration of
// the operation (§3.2). The lock and the unlock may be dropped; without
// them the re-load / compare / store sequence is no longer atomic, and
// the mark store drains at the system's leisure instead of before the
// locked instruction completes.
func (c *Config) markCom(pfx string, del bool, target func(*Local) heap.Ref) cimp.Com[*Local] {
	expected := func(l *Local) bool { return !l.mark().MFM }

	casWin := writeVal(pfx+"_cas_store",
		func(l *Local) Loc { return Loc{Kind: LMark, R: l.mark().MRef} },
		func(l *Local) Val { return BoolVal(l.mark().MFM) },
		func(l *Local) {
			m := l.mark()
			m.Winner, m.GHG = true, m.MRef // ghost_honorary_grey ← ref
		})

	casSteps := c.keep(make([]cimp.Com[*Local], 0, 4), req(pfx+"_lock", func(*Local) Req { return Req{Kind: RLock} }, nil))
	casSteps = append(casSteps,
		readTo(pfx+"_cas_load",
			func(l *Local) Loc { return Loc{Kind: LMark, R: l.mark().MRef} },
			func(l *Local, v Val) { l.mark().MFlag = v.Bool() }),
		cimp.If2(pfx+"_cas_cmp",
			func(l *Local) bool { return l.mark().MFlag == expected(l) },
			casWin,
			det(pfx+"_cas_fail", func(l *Local) { l.mark().Winner = false })))
	casSteps = c.keep(casSteps, req(pfx+"_unlock", func(*Local) Req { return Req{Kind: RUnlock} }, nil))
	cas := seqs(casSteps...)

	body := seqs(
		readTo(pfx+"_load_fM",
			func(*Local) Loc { return Loc{Kind: LFM} },
			func(l *Local, v Val) { l.mark().MFM = v.Bool() }),
		readTo(pfx+"_load_flag",
			func(l *Local) Loc { return Loc{Kind: LMark, R: l.mark().MRef} },
			func(l *Local, v Val) { l.mark().MFlag = v.Bool() }),
		cimp.If1(pfx+"_flag_chk",
			func(l *Local) bool { return l.mark().MFlag == expected(l) },
			seqs(
				readTo(pfx+"_load_phase",
					func(*Local) Loc { return Loc{Kind: LPhase} },
					func(l *Local, v Val) { l.mark().MPhase = v.Phase() }),
				cimp.If1(pfx+"_phase_chk",
					func(l *Local) bool { return l.mark().MPhase != PhIdle },
					cas))),
		cimp.If1(pfx+"_win_chk",
			func(l *Local) bool { return l.mark().Winner },
			det(pfx+"_add_w", func(l *Local) {
				m, w := l.mark(), l.worklist()
				*w = w.Add(m.MRef)
				m.GHG = heap.NilRef // ghost_honorary_grey ← null
			})),
		det(pfx+"_end", (*Local).resetMark),
	)

	return seqs(
		det(pfx+"_begin", func(l *Local) {
			m := l.mark()
			m.MRef, m.Winner, m.InMark, m.InMarkDel = target(l), false, true, del
		}),
		cimp.If2(pfx+"_null_chk",
			func(l *Local) bool { return l.mark().MRef != heap.NilRef },
			body,
			det(pfx+"_skip", (*Local).resetMark)),
	)
}
