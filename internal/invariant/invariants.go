package invariant

import (
	"fmt"

	"repro/internal/gcmodel"
	"repro/internal/heap"
)

// Check is a named invariant over global states.
type Check struct {
	Name string
	Pred func(*View) error
}

// ValidRefs is the headline safety property:
//
//	□ (∀r. reachable r → valid_ref r)
//
// — there is always an object at every reference reachable from a mutator
// root, where roots include pending TSO insertions and in-flight
// deletion-barrier targets (§3.2).
var ValidRefs = Check{Name: "valid_refs_inv", Pred: func(v *View) error {
	roots := v.GlobalRoots()
	_, dangling := v.ReachableFrom(roots)
	if !dangling.Empty() {
		return fmt.Errorf("reachable references %v have no object (roots %v, heap %v)",
			dangling, roots, v.Sys.Heap)
	}
	return nil
}}

// StrongTricolor: there are no pointers from black objects to white
// objects (§2.1). It applies to the heap: committed fields only (pending
// writes are covered by marked_insertions).
var StrongTricolor = Check{Name: "strong_tricolor_inv", Pred: func(v *View) error {
	var err error
	v.Black.Each(func(b heap.Ref) {
		for f, c := range v.Sys.Heap.Obj(b).Fields {
			if c != heap.NilRef && v.White.Has(c) && !v.Grey.Has(c) {
				err = fmt.Errorf("black %d.%d → white %d", b, f, c)
			}
		}
	})
	return err
}}

// WeakTricolor: every white object pointed to by a black object is
// grey-protected — reachable from a grey object via a chain of zero or
// more white objects (§2.1, Figure 1). Implied by StrongTricolor; checked
// independently because the mutators' roots are treated as black once
// scanned.
var WeakTricolor = Check{Name: "weak_tricolor_inv", Pred: func(v *View) error {
	var err error
	v.Black.Each(func(b heap.Ref) {
		for f, c := range v.Sys.Heap.Obj(b).Fields {
			if c != heap.NilRef && v.White.Has(c) && !v.GreyProtected.Has(c) {
				err = fmt.Errorf("black %d.%d → white %d not grey-protected", b, f, c)
			}
		}
	})
	return err
}}

// markedInsertions: every reference being written into an object by a
// write pending in m's TSO store buffer is marked (§3.2).
func markedInsertions(v *View, m int) error {
	for _, w := range v.G.Buf(gcmodel.MutPID(m)) {
		if w.Loc.Kind != gcmodel.LField {
			continue
		}
		r := w.Val.Ref()
		if r == heap.NilRef {
			continue
		}
		if !v.Marked.Has(r) && !v.Grey.Has(r) {
			return fmt.Errorf("mutator %d pending insertion %v←%d targets unmarked %d", m, w.Loc, r, r)
		}
	}
	return nil
}

// markedDeletions: every reference that will be overwritten by a write
// pending in m's TSO store buffer is marked (§3.2). The overwritten
// reference for a pending write is the newest earlier pending write to
// the same location in the same buffer, else the committed field value.
func markedDeletions(v *View, m int) error {
	buf := v.G.Buf(gcmodel.MutPID(m))
	for i, w := range buf {
		if w.Loc.Kind != gcmodel.LField {
			continue
		}
		victim := heap.NilRef
		found := false
		for j := i - 1; j >= 0; j-- {
			if buf[j].Loc == w.Loc {
				victim = buf[j].Val.Ref()
				found = true
				break
			}
		}
		if !found {
			if !v.Sys.Heap.Valid(w.Loc.R) {
				continue // freed object: only in ablated models
			}
			victim = v.Sys.Heap.Load(w.Loc.R, w.Loc.F)
		}
		if victim == heap.NilRef {
			continue
		}
		if !v.Marked.Has(victim) && !v.Grey.Has(victim) {
			return fmt.Errorf("mutator %d pending write %v deletes unmarked %d", m, w, victim)
		}
	}
	return nil
}

// ValidW is valid_W_inv (§3.2): work-lists are pairwise disjoint; if a
// reference is on some process's work-list or is its
// ghost_honorary_grey and that process does not hold the TSO lock, the
// object is marked on the heap; and any pending mark writes use f_M.
var ValidW = Check{Name: "valid_W_inv", Pred: func(v *View) error {
	for i, n := 0, v.nWorklists(); i < n; i++ {
		for j := i + 1; j < n; j++ {
			if inter := v.worklist(i).Intersect(v.worklist(j)); !inter.Empty() {
				return fmt.Errorf("work-lists %s and %s intersect at %v",
					worklistName(i), worklistName(j), inter)
			}
		}
	}

	// Per-process marked-on-heap obligation: process 0 is the collector,
	// 1+m mutator m (their PIDs).
	for p := 0; p <= v.G.NMut(); p++ {
		if int(v.Sys.Lock) == p {
			continue // a mark may be in flight inside the CAS
		}
		owned := v.G.GC().W.Add(v.G.GC().GHG)
		if p > 0 {
			owned = v.G.Mut(p - 1).WM.Add(v.G.Mut(p - 1).GHG)
		}
		var err error
		owned.Each(func(r heap.Ref) {
			switch {
			case !v.Sys.Heap.Valid(r):
				err = fmt.Errorf("%s owns grey %d with no object", procName(p), r)
			case !v.Marked.Has(r):
				err = fmt.Errorf("%s owns grey %d not marked on heap", procName(p), r)
			}
		})
		if err != nil {
			return err
		}
	}
	// The system work-list: transferred greys, no owner, never under a
	// lock of their own.
	var err error
	v.Sys.W.Each(func(r heap.Ref) {
		if !v.Sys.Heap.Valid(r) || !v.Marked.Has(r) {
			err = fmt.Errorf("Sys.W grey %d not marked on heap", r)
		}
	})
	if err != nil {
		return err
	}
	// Pending mark writes use f_M.
	for p, buf := range v.Sys.Bufs {
		for _, w := range buf {
			if w.Loc.Kind == gcmodel.LMark && w.Val.Bool() != v.FM {
				return fmt.Errorf("pid %d pending mark %v does not use f_M=%v", p, w, v.FM)
			}
		}
	}
	return nil
}}

// reachableSnapshot: everything reachable from mutator m's roots is black
// or grey-protected (§3.2); established as m completes the root-marking
// handshake and maintained until the cycle ends.
func reachableSnapshot(v *View, m int) error {
	reach, dangling := v.ReachableFrom(v.MutRoots(m))
	if !dangling.Empty() {
		return fmt.Errorf("mutator %d roots dangle at %v", m, dangling)
	}
	var err error
	reach.Each(func(r heap.Ref) {
		if !v.Black.Has(r) && !v.GreyProtected.Has(r) {
			err = fmt.Errorf("mutator %d reaches %d: neither black nor grey-protected (roots=%v black=%v grey=%v)",
				m, r, v.MutRoots(m), v.Black, v.Grey)
		}
	})
	return err
}

// MutatorPhase is mutator_phase_inv (§3.2): per-mutator assertions keyed
// by the mutator's ghost handshake phase.
var MutatorPhase = Check{Name: "mutator_phase_inv", Pred: func(v *View) error {
	for m := 0; m < v.G.NMut(); m++ {
		mu := v.G.Mut(m)
		switch mu.HP {
		case gcmodel.HpIdleInit:
			// There are no black references (allocation is still white;
			// the heap was whitened by the f_M flip).
			if !v.Black.Empty() {
				return fmt.Errorf("mutator %d in %v but black = %v", m, mu.HP, v.Black)
			}
		case gcmodel.HpInitMark:
			if err := markedInsertions(v, m); err != nil {
				return err
			}
		case gcmodel.HpIdleMarkSweep:
			if err := markedInsertions(v, m); err != nil {
				return err
			}
			if err := markedDeletions(v, m); err != nil {
				return err
			}
			if mu.RootsDone {
				if err := reachableSnapshot(v, m); err != nil {
					return err
				}
			}
		}
	}
	return nil
}}

// SysPhase is sys_phase_inv (§3.2): assertions keyed by the handshake
// round the collector has most recently initiated.
var SysPhase = Check{Name: "sys_phase_inv", Pred: func(v *View) error {
	switch v.Sys.Tag {
	case gcmodel.TagIdle:
		// hp_Idle: if f_A = f_M the heap is black, else white; no greys.
		if !v.Grey.Empty() {
			return fmt.Errorf("greys %v during idle handshake", v.Grey)
		}
		if v.G.GCViewFA() == v.FM {
			if !v.White.Empty() {
				return fmt.Errorf("white %v during idle handshake with f_A = f_M", v.White)
			}
		} else if !v.Marked.Empty() {
			return fmt.Errorf("marked %v during idle handshake with f_A ≠ f_M", v.Marked)
		}
	case gcmodel.TagIdleInit:
		// hp_IdleInit: there are no black references.
		if !v.Black.Empty() {
			return fmt.Errorf("black %v during idle-init handshake", v.Black)
		}
	case gcmodel.TagInitMark:
		// hp_InitMark: until the write to f_A is committed there are no
		// black references (mutators allocate white until then).
		if v.Sys.FA != v.G.GCViewFA() {
			// f_A write still pending.
			if !v.Black.Empty() {
				return fmt.Errorf("black %v before f_A commit", v.Black)
			}
		}
		if v.Sys.FA != v.FM && !v.Black.Empty() {
			return fmt.Errorf("black %v while committed f_A ≠ f_M", v.Black)
		}
	}
	return nil
}}

// GCWEmpty is gc_W_empty_mut_inv (§3.2): while the collector waits on a
// get-roots or get-work handshake with an empty collector and system
// work-list, any mutator that has already completed the round and holds
// grey references implies some mutator with grey references has yet to
// complete the round. This is what makes the mark-loop termination test
// sound.
var GCWEmpty = Check{Name: "gc_W_empty_mut_inv", Pred: func(v *View) error {
	if v.Sys.Tag != gcmodel.TagRoots && v.Sys.Tag != gcmodel.TagWork {
		return nil
	}
	if !(v.atGC("gc_hs_roots_wait_all") || v.atGC("gc_hs_work_wait_all")) {
		return nil
	}
	if !v.G.GC().W.Empty() || !v.Sys.W.Empty() {
		return nil
	}
	for m := 0; m < v.G.NMut(); m++ {
		mu := v.G.Mut(m)
		if v.Sys.Pending[m] || mu.WM.Empty() {
			continue
		}
		// m completed the round yet holds greys: someone still pending
		// must hold greys (they will report them).
		ok := false
		for m2 := 0; m2 < v.G.NMut(); m2++ {
			if v.Sys.Pending[m2] && !v.G.Mut(m2).WM.Union(greyGhost(v, m2)).Empty() {
				ok = true
			}
		}
		if !ok {
			return fmt.Errorf("mutator %d completed round with WM=%v but no pending mutator holds greys",
				m, mu.WM)
		}
	}
	return nil
}}

func greyGhost(v *View, m int) heap.RefSet {
	return heap.SetOf(v.G.Mut(m).GHG)
}

// SweepSafety: while the collector's ghost phase is Sweep, tracing has
// terminated: there are no grey references and everything reachable is
// black (§3.2, "Termination of Marking"). White objects are garbage.
var SweepSafety = Check{Name: "sweep_inv", Pred: func(v *View) error {
	if v.G.GC().Phase != gcmodel.PhSweep {
		return nil
	}
	if !v.Grey.Empty() {
		return fmt.Errorf("greys %v during sweep", v.Grey)
	}
	roots := v.GlobalRoots()
	reach, dangling := v.ReachableFrom(roots)
	if !dangling.Empty() {
		return fmt.Errorf("dangling roots %v during sweep", dangling)
	}
	var err error
	reach.Each(func(r heap.Ref) {
		if !v.Black.Has(r) {
			err = fmt.Errorf("reachable %d not black during sweep", r)
		}
	})
	return err
}}

// TSOControl captures the paper's coarse TSO invariants on the control
// variables (§3.2): only the collector writes f_A, f_M, and phase; at
// most one write to each of f_A and f_M is pending (the collector fences
// at the next handshake); and at most two phase writes are pending
// (Mark→Sweep and Sweep→Idle are unsynchronized).
var TSOControl = Check{Name: "tso_control_inv", Pred: func(v *View) error {
	for p, buf := range v.Sys.Bufs {
		nFA, nFM, nPhase := 0, 0, 0
		for _, w := range buf {
			switch w.Loc.Kind {
			case gcmodel.LFA:
				nFA++
			case gcmodel.LFM:
				nFM++
			case gcmodel.LPhase:
				nPhase++
			}
		}
		if p != int(gcmodel.GCPID) && nFA+nFM+nPhase > 0 {
			return fmt.Errorf("pid %d has pending control writes", p)
		}
		if nFA > 1 || nFM > 1 || nPhase > 2 {
			return fmt.Errorf("collector buffer holds %d f_A, %d f_M, %d phase writes", nFA, nFM, nPhase)
		}
	}
	return nil
}}

// All returns the full battery of invariants, strongest (and cheapest to
// violate detectably) first.
func All() []Check {
	return []Check{
		ValidRefs,
		ValidW,
		StrongTricolor,
		WeakTricolor,
		MutatorPhase,
		SysPhase,
		GCWEmpty,
		SweepSafety,
		TSOControl,
	}
}

// Safety returns just the headline property, for ablation hunts where the
// auxiliary invariants are expected to fail first.
func Safety() []Check { return []Check{ValidRefs} }

// Failure is a named invariant failure, used by the simulator (package
// sched) where no counterexample trace is retained.
type Failure struct {
	Name string
	Err  error
	Step int
}

func (f *Failure) Error() string {
	return fmt.Sprintf("%s violated at step %d: %v", f.Name, f.Step, f.Err)
}
