package gcmodel

import (
	"fmt"

	"repro/internal/cimp"
	"repro/internal/heap"
)

// This file builds the mutator processes: a maximally non-deterministic
// choice among the operations of paper Figure 6 (Load, Store with both
// write barriers, Alloc, Discard), an MFENCE, and the mutator's side of
// the soft handshakes (§3.1, Figure 4). Every client of the collector is
// expected to be a refinement of this process — i.e. to respect the heap
// access protocol and nothing more.

// hpAfter maps a completed handshake round to the mutator's new ghost
// handshake phase (Figure 3, bottom row).
func hpAfter(tag RoundTag, cur HandshakePhase) HandshakePhase {
	switch tag {
	case TagIdle:
		return HpIdle
	case TagIdleInit:
		return HpIdleInit
	case TagInitMark:
		return HpInitMark
	case TagMark, TagRoots, TagWork:
		return HpIdleMarkSweep
	}
	return cur
}

// MutProgram builds the mutator process with ordinal m (PID m+1). Both
// write barriers, both handshake fences and the handshake alternative
// may be dropped.
func (c *Config) MutProgram(m int) cimp.Com[*Local] {
	pfx := fmt.Sprintf("mut%d", m)

	// hasBudget gates heap operations under Config.OpBudget.
	hasBudget := func(l *Local) bool { return c.OpBudget == 0 || l.Mut.OpsLeft > 0 }
	spend := func(l *Local) {
		if c.OpBudget > 0 {
			l.Mut.OpsLeft--
		}
	}

	// Load (Figure 6): roots ← roots ∪ {src.fld}.
	load := seqs(
		&cimp.LocalOp[*Local]{L: pfx + "_load_pick", F: func(l *Local) []*Local {
			if !hasBudget(l) {
				return nil
			}
			var out []*Local
			l.Mut.Roots.Each(func(src heap.Ref) {
				for f := 0; f < c.NFields; f++ {
					n := l.Clone()
					spend(n)
					n.Mut.SSrc, n.Mut.SFld = src, heap.Field(f)
					out = append(out, n)
				}
			})
			return out
		}},
		readTo(pfx+"_load",
			func(l *Local) Loc { return Loc{Kind: LField, R: l.Mut.SSrc, F: l.Mut.SFld} },
			func(l *Local, v Val) { l.Mut.TmpRef = v.Ref() }),
		det(pfx+"_load_add", func(l *Local) {
			l.Mut.Roots = l.Mut.Roots.Add(l.Mut.TmpRef)
			l.Mut.TmpRef = heap.NilRef
			l.Mut.SSrc = heap.NilRef
			l.Mut.SFld = 0
		}),
	)

	// Store (Figure 6): deletion barrier on the overwritten reference,
	// insertion barrier on the stored reference, then the (buffered)
	// heap update. The deletion barrier does not add the overwritten
	// reference to the mutator's roots, but ghost state records that it
	// is protected for the duration of its mark.
	storeSteps := []cimp.Com[*Local]{
		&cimp.LocalOp[*Local]{L: pfx + "_store_pick", F: func(l *Local) []*Local {
			if !hasBudget(l) {
				return nil
			}
			var out []*Local
			targets := l.Mut.Roots
			l.Mut.Roots.Each(func(src heap.Ref) {
				for f := 0; f < c.NFields; f++ {
					targets.Each(func(dst heap.Ref) {
						n := l.Clone()
						spend(n)
						n.Mut.SSrc, n.Mut.SFld, n.Mut.SDst = src, heap.Field(f), dst
						out = append(out, n)
					})
					if c.AllowNilStore {
						n := l.Clone()
						spend(n)
						n.Mut.SSrc, n.Mut.SFld, n.Mut.SDst = src, heap.Field(f), heap.NilRef
						out = append(out, n)
					}
				}
			})
			return out
		}},
		// Load the overwritten reference for the deletion barrier.
		readTo(pfx+"_store_load_old",
			func(l *Local) Loc { return Loc{Kind: LField, R: l.Mut.SSrc, F: l.Mut.SFld} },
			func(l *Local, v Val) { l.Mut.TmpRef = v.Ref() }),
	}
	storeSteps = c.keep(storeSteps,
		c.markCom(pfx+"_delbar", true, func(l *Local) heap.Ref { return l.Mut.TmpRef }))
	if ins := c.markCom(pfx+"_insbar", false, func(l *Local) heap.Ref { return l.Mut.SDst }); !c.dropped(ins) {
		if c.InsertionBarrierOnlyBeforeRootsDone {
			// §4 observation: one extra thread-local branch removes the
			// insertion barrier across the mark loop.
			ins = cimp.If1(pfx+"_insbar_gate",
				func(l *Local) bool { return !l.Mut.RootsDone }, ins)
		}
		storeSteps = append(storeSteps, ins)
	}
	storeSteps = append(storeSteps,
		writeVal(pfx+"_store_write",
			func(l *Local) Loc { return Loc{Kind: LField, R: l.Mut.SSrc, F: l.Mut.SFld} },
			func(l *Local) Val { return RefVal(l.Mut.SDst) },
			func(l *Local) {
				l.Mut.SSrc, l.Mut.SDst, l.Mut.TmpRef = heap.NilRef, heap.NilRef, heap.NilRef
				l.Mut.SFld = 0
			}),
	)
	store := seqs(storeSteps...)

	// Alloc (Figure 6): an atomic global action at the system. The
	// budget rides in the request: the system refuses an exhausted
	// requester (requests cannot be disabled sender-side).
	alloc := req(pfx+"_alloc",
		func(l *Local) Req { return Req{Kind: RAlloc, Mut: opsLeftOrUnbounded(c, l)} },
		func(l *Local, r Resp) {
			spend(l)
			l.Mut.Roots = l.Mut.Roots.Add(r.Ref)
		})

	// Discard (Figure 6): drop an arbitrary root.
	discard := &cimp.LocalOp[*Local]{L: pfx + "_discard", F: func(l *Local) []*Local {
		if !hasBudget(l) {
			return nil
		}
		var out []*Local
		l.Mut.Roots.Each(func(r heap.Ref) {
			n := l.Clone()
			spend(n)
			n.Mut.Roots = n.Mut.Roots.Remove(r)
			out = append(out, n)
		})
		return out
	}}

	// The mutator's side of a soft handshake (Figure 4): poll the
	// pending bit; if set, load-fence, perform the requested work,
	// store-fence, and signal completion (transferring the private
	// work-list for get-roots and get-work handshakes).
	rootsWork := seqs(
		det(pfx+"_hs_roots_first", func(l *Local) { l.Mut.PendRoots = l.Mut.Roots }),
		&cimp.While[*Local]{L: pfx + "_hs_roots_loop",
			C: func(l *Local) bool { return !l.Mut.PendRoots.Empty() },
			Body: seqs(
				det(pfx+"_hs_root_pick", func(l *Local) {
					l.Mut.TmpRef = l.Mut.PendRoots.Any()
					l.Mut.PendRoots = l.Mut.PendRoots.Remove(l.Mut.TmpRef)
				}),
				c.markCom(pfx+"_rootmark", false, func(l *Local) heap.Ref { return l.Mut.TmpRef }),
			)},
	)
	hsDone := req(pfx+"_hs_done",
		func(l *Local) Req {
			r := Req{Kind: RHsDone}
			if l.Mut.HSTy != HSNoop {
				r.WM = l.Mut.WM
			}
			return r
		},
		func(l *Local, _ Resp) {
			if l.Mut.HSTy != HSNoop {
				l.Mut.WM = 0
			}
			l.Mut.HP = hpAfter(l.Mut.HSTag, l.Mut.HP)
			switch l.Mut.HSTag {
			case TagIdle, TagIdleInit, TagInitMark, TagMark:
				// Completing any initialization round starts a
				// new cycle from this mutator's perspective:
				// clear the snapshot ghost and refill the
				// operation budget. Refilling at every
				// initialization round (rather than only the
				// first) keeps the ghost state correct when
				// rounds are elided (E12) — the budget then
				// bounds operations per round rather than per
				// cycle, which is still finite.
				l.Mut.RootsDone = false
				l.Mut.OpsLeft = c.OpBudget
			case TagRoots:
				l.Mut.RootsDone = true
			}
			l.Mut.HSP = false
			l.Mut.HSTy, l.Mut.HSTag = HSNoop, TagNone
			l.Mut.TmpRef = heap.NilRef // root-marking iteration residue
		})

	// The accepted-handshake body, between its two fences.
	accept := c.keep(nil, mfence(pfx+"_hs_mfence_accept"))
	accept = append(accept,
		cimp.If1(pfx+"_hs_is_roots",
			func(l *Local) bool { return l.Mut.HSTy == HSGetRoots },
			rootsWork))
	accept = c.keep(accept, mfence(pfx+"_hs_mfence_finish"))
	accept = append(accept, hsDone)

	handshake := seqs(
		req(pfx+"_hs_poll",
			func(*Local) Req { return Req{Kind: RHsPoll} },
			func(l *Local, r Resp) {
				if !r.Pending {
					// Not pending: leave no register residue so idle
					// polling is a pure self-loop.
					l.Mut.HSP, l.Mut.HSTy, l.Mut.HSTag = false, HSNoop, TagNone
					return
				}
				l.Mut.HSP, l.Mut.HSTy, l.Mut.HSTag = r.Pending, r.HS, r.Tag
			}),
		cimp.If1(pfx+"_hs_pending",
			func(l *Local) bool { return l.Mut.HSP },
			seqs(accept...)),
	)

	alts := c.keep(nil, handshake)
	if !c.DisableLoad {
		alts = append(alts, load)
	}
	if !c.DisableStore {
		alts = append(alts, store)
	}
	if !c.DisableAlloc {
		alts = append(alts, alloc)
	}
	if !c.DisableDiscard {
		alts = append(alts, discard)
	}
	if !c.DisableMFence {
		alts = append(alts, mfence(pfx+"_mfence"))
	}

	return &cimp.Loop[*Local]{Body: &cimp.Choose[*Local]{Alts: alts}}
}

// opsLeftOrUnbounded returns the requester's remaining budget, or a
// positive sentinel when budgets are off.
func opsLeftOrUnbounded(c *Config, l *Local) int {
	if c.OpBudget == 0 {
		return 1
	}
	return l.Mut.OpsLeft
}
