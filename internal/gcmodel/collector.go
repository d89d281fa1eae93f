package gcmodel

import (
	"repro/internal/cimp"
	"repro/internal/heap"
)

// This file builds the collector process of paper Figure 2 (with the mark
// loop of Figure 10): a non-terminating control loop, each iteration of
// which performs one mark-sweep cycle, communicating with the mutators
// through rounds of soft handshakes and with shared memory through the
// TSO system process.

// hsRound builds one round of soft handshakes on the collector's side
// (Figure 4): set the handshake type, store-fence, signal each mutator in
// turn, wait for all to complete (collecting the transferred work-lists
// into the collector's W), and load-fence.
//
// The mutators are signaled in a fixed order; the paper allows an
// arbitrary order, but the order of signaling is immaterial because
// mutators accept asynchronously (the handshakes remain ragged). Both
// fences may be dropped.
func (c *Config) hsRound(pfx string, tag RoundTag, ty HSType) cimp.Com[*Local] {
	steps := []cimp.Com[*Local]{
		req(pfx+"_start",
			func(*Local) Req { return Req{Kind: RHsStart, HS: ty, Tag: tag} }, nil),
	}
	steps = c.keep(steps, mfence(pfx+"_mfence_init"))
	steps = append(steps,
		det(pfx+"_sig_first", func(l *Local) { l.GC.MutIdx = 0 }),
		&cimp.While[*Local]{L: pfx + "_sig_loop",
			C: func(l *Local) bool { return l.GC.MutIdx < c.NMutators },
			Body: seqs(
				req(pfx+"_signal",
					func(l *Local) Req { return Req{Kind: RHsSignal, Mut: l.GC.MutIdx} }, nil),
				det(pfx+"_sig_next", func(l *Local) { l.GC.MutIdx++ }),
			)},
		req(pfx+"_wait_all",
			func(*Local) Req { return Req{Kind: RHsWaitAll} },
			func(l *Local, r Resp) { l.GC.W = l.GC.W.Union(r.W) }),
	)
	steps = c.keep(steps, mfence(pfx+"_mfence_done"))
	return seqs(steps...)
}

// GCProgram builds the collector process. Handshake rounds 1–4 may be
// dropped.
func (c *Config) GCProgram() cimp.Com[*Local] {
	markLoop := &cimp.While[*Local]{L: "gc_mark_outer",
		C: func(l *Local) bool { return !l.GC.W.Empty() },
		Body: seqs(
			&cimp.While[*Local]{L: "gc_mark_inner",
				C: func(l *Local) bool { return !l.GC.W.Empty() },
				Body: seqs(
					// src ← r. r ∈ W (line 27). The paper's
					// non-deterministic choice of source is fixed to
					// W.Any(), which is sound because marking is
					// commutative and all interleavings with other
					// processes are still explored.
					det("gc_pick_src", func(l *Local) { l.GC.Src = l.GC.W.Any() }),
					det("gc_fld_first", func(l *Local) { l.GC.FldIdx = 0 }),
					&cimp.While[*Local]{L: "gc_fld_loop",
						C: func(l *Local) bool { return l.GC.FldIdx < c.NFields },
						Body: seqs(
							readTo("gc_load_fld",
								func(l *Local) Loc {
									return Loc{Kind: LField, R: l.GC.Src, F: heap.Field(l.GC.FldIdx)}
								},
								func(l *Local, v Val) { l.GC.TmpRef = v.Ref() }),
							c.markCom("gc_mark", false,
								func(l *Local) heap.Ref { return l.GC.TmpRef }),
							det("gc_fld_next", func(l *Local) { l.GC.FldIdx++ }),
						)},
					// Blacken src (line 30).
					det("gc_blacken", func(l *Local) {
						l.GC.W = l.GC.W.Remove(l.GC.Src)
						l.GC.Src = heap.NilRef
						l.GC.TmpRef = heap.NilRef
						l.GC.FldIdx = 0
					}),
				)},
			// Poll the mutators for their work-lists (lines 31–34).
			c.hsRound("gc_hs_work", TagWork, HSGetWork),
		)}

	sweep := seqs(
		writeVal("gc_write_phase_sweep",
			func(*Local) Loc { return Loc{Kind: LPhase} },
			func(*Local) Val { return PhaseVal(PhSweep) },
			func(l *Local) { l.GC.Phase = PhSweep }),
		// refs ← heap (line 38).
		req("gc_refs_snapshot",
			func(*Local) Req { return Req{Kind: RRefsSnapshot} },
			func(l *Local, r Resp) { l.GC.Sweep = r.W }),
		&cimp.While[*Local]{L: "gc_sweep_loop",
			C: func(l *Local) bool { return !l.GC.Sweep.Empty() },
			Body: seqs(
				det("gc_sweep_pick", func(l *Local) { l.GC.SwRef = l.GC.Sweep.Any() }),
				readTo("gc_load_sweep_flag",
					func(l *Local) Loc { return Loc{Kind: LMark, R: l.GC.SwRef} },
					func(l *Local, v Val) { l.GC.SwFlag = v.Bool() }),
				// if flag(ref) ≠ f_M: the object is white; free it
				// (lines 41–44).
				cimp.If1("gc_sweep_white",
					func(l *Local) bool { return l.GC.SwFlag != l.GC.FM },
					req("gc_free",
						func(l *Local) Req { return Req{Kind: RFree, Loc: Loc{Kind: LMark, R: l.GC.SwRef}} },
						nil)),
				det("gc_sweep_next", func(l *Local) {
					l.GC.Sweep = l.GC.Sweep.Remove(l.GC.SwRef)
					l.GC.SwRef = heap.NilRef
					l.GC.SwFlag = false
				}),
			)},
	)

	steps := []cimp.Com[*Local]{}
	// Round 1 (lines 3–4): ensure all mutators know the collector is
	// idle.
	if idle := c.hsRound("gc_hs_idle", TagIdle, HSNoop); !c.dropped(idle) {
		steps = append(steps, idle)
	} else {
		steps = append(steps, det("gc_hs_idle_elided", func(l *Local) {}))
	}
	steps = append(steps,
		// Flip the sense of the marks (line 5); heap becomes white.
		det("gc_flip_fM", func(l *Local) { l.GC.FM = !l.GC.FM }),
		writeVal("gc_write_fM",
			func(*Local) Loc { return Loc{Kind: LFM} },
			func(l *Local) Val { return BoolVal(l.GC.FM) }, nil),
	)
	// Round 2 (lines 6–7).
	steps = c.keep(steps, c.hsRound("gc_hs_flip", TagIdleInit, HSNoop))
	steps = append(steps,
		// phase ← Init (line 8); write barriers become enabled.
		writeVal("gc_write_phase_init",
			func(*Local) Loc { return Loc{Kind: LPhase} },
			func(*Local) Val { return PhaseVal(PhInit) },
			func(l *Local) { l.GC.Phase = PhInit }),
	)
	// Round 3 (lines 9–10).
	steps = c.keep(steps, c.hsRound("gc_hs_init", TagInitMark, HSNoop))
	steps = append(steps,
		// phase ← Mark; f_A ← f_M (lines 11–12); allocate black from
		// here (after the handshake).
		writeVal("gc_write_phase_mark",
			func(*Local) Loc { return Loc{Kind: LPhase} },
			func(*Local) Val { return PhaseVal(PhMark) },
			func(l *Local) { l.GC.Phase = PhMark }),
		writeVal("gc_write_fA",
			func(*Local) Loc { return Loc{Kind: LFA} },
			func(l *Local) Val { return BoolVal(l.GC.FM) },
			func(l *Local) { l.GC.FA = l.GC.FM }),
	)
	// Round 4 (lines 13–14).
	steps = c.keep(steps, c.hsRound("gc_hs_mark", TagMark, HSNoop))
	steps = append(steps,
		// Round 5 (lines 15–20): mutators mark their roots and transfer
		// them; the wait-all collects them into W.
		c.hsRound("gc_hs_roots", TagRoots, HSGetRoots),
		// Lines 24–34 / Figure 10.
		markLoop,
		// Lines 35–45.
		sweep,
		// phase ← Idle (line 46).
		writeVal("gc_write_phase_idle",
			func(*Local) Loc { return Loc{Kind: LPhase} },
			func(*Local) Val { return PhaseVal(PhIdle) },
			func(l *Local) { l.GC.Phase = PhIdle }),
	)

	return &cimp.Loop[*Local]{Body: seqs(steps...)}
}
