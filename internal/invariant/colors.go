// Package invariant implements the paper's safety invariants (§2.1, §3.2)
// as executable predicates over global model states, for use by the
// explicit-state model checker (package explore) and the simulator. The
// names follow the paper: valid_refs_inv, the strong and weak tricolor
// invariants, reachable_snapshot_inv, marked_insertions,
// marked_deletions, valid_W_inv, sys_phase_inv, mutator_phase_inv, and
// gc_W_empty_mut_inv.
//
// Color interpretation (§3.2): an object is white if it is not marked on
// the heap (its flag differs from f_M), grey if it is on a work-list or
// is some process's ghost_honorary_grey, and black if it is marked on the
// heap and not grey. White and grey overlap during the marking CAS; black
// is disjoint from both. f_M is taken from the collector's viewpoint
// (its own newest buffered write, else memory), the collector being
// f_M's sole writer.
package invariant

import (
	"repro/internal/cimp"
	"repro/internal/gcmodel"
	"repro/internal/heap"
)

// View is a precomputed color/root decomposition of a global state; all
// predicates are stated against it.
type View struct {
	G   gcmodel.Global
	Sys *gcmodel.SysLocal
	FM  bool // f_M from the collector's viewpoint

	// Grey is the set of grey references: every work-list (collector,
	// system, and per-mutator) plus every process's ghost_honorary_grey.
	Grey heap.RefSet
	// Marked is the set of references whose heap flag equals FM.
	Marked heap.RefSet
	// White is the set of valid references not Marked.
	White heap.RefSet
	// Black is Marked minus Grey.
	Black heap.RefSet
	// GreyProtected is Grey plus every white reference reachable from a
	// grey reference via a chain of white references (Grey →*w White).
	GreyProtected heap.RefSet
}

// NewView decomposes a global state.
func NewView(g gcmodel.Global) *View {
	v := new(View)
	v.Reset(g)
	return v
}

// Reset makes v the decomposition of g, in place: a caller that checks many
// states keeps one View and pays no allocation per state.
func (v *View) Reset(g gcmodel.Global) {
	sys, fm := g.Sys(), g.GCViewFM()

	grey := g.GC().W.Union(sys.W)
	grey = grey.Add(g.GC().GHG)
	for m := 0; m < g.NMut(); m++ {
		mu := g.Mut(m)
		grey = grey.Union(mu.WM).Add(mu.GHG)
	}

	var marked, white heap.RefSet
	for i, o := range sys.Heap.Objs {
		if o == nil {
			continue
		}
		r := heap.Ref(i)
		if o.Flag == fm {
			marked = marked.Add(r)
		} else {
			white = white.Add(r)
		}
	}
	v.G, v.Sys, v.FM = g, sys, fm
	v.Grey, v.Marked, v.White, v.Black = grey, marked, white, marked.Minus(grey)
	v.GreyProtected = sys.Heap.ReachableVia(grey, func(r heap.Ref) bool {
		return white.Has(r) || grey.Has(r)
	}).Union(grey)
}

// MutExtraRoots returns the references mutator m can expose beyond its
// declared roots (§3.2): the values of field writes pending in its TSO
// store buffer, its ghost_honorary_grey, and — while its deletion barrier
// is marking — the reference being marked.
func (v *View) MutExtraRoots(m int) heap.RefSet {
	var s heap.RefSet
	mu := v.G.Mut(m)
	s = s.Add(mu.GHG)
	if mu.InMarkDel {
		s = s.Add(mu.MRef)
	}
	for _, w := range v.G.Buf(gcmodel.MutPID(m)) {
		if w.Loc.Kind == gcmodel.LField {
			s = s.Add(w.Val.Ref())
		}
	}
	return s
}

// MutRoots returns mutator m's full root set for the safety argument:
// declared roots plus extra roots.
func (v *View) MutRoots(m int) heap.RefSet {
	return v.G.Mut(m).Roots.Union(v.MutExtraRoots(m))
}

// GlobalRoots returns the union of every mutator's full root set.
func (v *View) GlobalRoots() heap.RefSet {
	var s heap.RefSet
	for m := 0; m < v.G.NMut(); m++ {
		s = s.Union(v.MutRoots(m))
	}
	return s
}

// ReachableFrom computes heap reachability from a root set, including
// dangling roots themselves (a dangling root is a safety violation that
// Reachable alone would mask, so collect them separately).
func (v *View) ReachableFrom(roots heap.RefSet) (reach heap.RefSet, dangling heap.RefSet) {
	roots.Each(func(r heap.Ref) {
		if !v.Sys.Heap.Valid(r) {
			dangling = dangling.Add(r)
		}
	})
	return v.Sys.Heap.Reachable(roots), dangling
}

// Work-lists are numbered: 0 is the collector's, 1 the system's, 2+m
// mutator m's. The checks iterate by number so that a clean state costs
// no slice and no name; names are formatted only for an error.
func (v *View) nWorklists() int { return 2 + v.G.NMut() }

func (v *View) worklist(i int) heap.RefSet {
	switch i {
	case 0:
		return v.G.GC().W
	case 1:
		return v.Sys.W
	}
	return v.G.Mut(i - 2).WM
}

func worklistName(i int) string {
	switch i {
	case 0:
		return "GC.W"
	case 1:
		return "Sys.W"
	}
	return mutName(i-2) + ".WM"
}

func mutName(m int) string { return "mut" + string(rune('0'+m)) }

// procName names PID p of the collector and the mutators.
func procName(p int) string {
	if p == int(gcmodel.GCPID) {
		return "GC"
	}
	return mutName(p - 1)
}

// atGC reports whether the collector is at the given label.
func (v *View) atGC(label string) bool {
	return cimp.At(v.G.GCConfig(), label)
}
