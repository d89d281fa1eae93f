package invariant

import (
	"strings"
	"testing"

	"repro/internal/cimp"
	"repro/internal/gcmodel"
	"repro/internal/heap"
)

// scenario builds a model and hands back a mutable copy of its initial
// state for crafting specific global situations.
func scenario(t *testing.T) (*gcmodel.Model, cimp.System[*gcmodel.Local]) {
	t.Helper()
	m, err := gcmodel.Build(gcmodel.Config{
		NMutators: 2,
		NRefs:     4,
		NFields:   2,
		MaxBuf:    2,
		InitObjects: map[heap.Ref][]heap.Ref{
			0: {1, heap.NilRef},
			1: {2, heap.NilRef},
			2: {heap.NilRef, heap.NilRef},
			3: {heap.NilRef, heap.NilRef},
		},
		InitRoots: []heap.RefSet{heap.SetOf(0), heap.SetOf(3)},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := m.Initial().CloneShallow()
	// Deep-copy the data states we will mutate.
	for i := range st.Procs {
		st.Procs[i] = cimp.Config[*gcmodel.Local]{
			Stack: st.Procs[i].Stack,
			Data:  st.Procs[i].Data.Clone(),
		}
	}
	return m, st
}

func view(m *gcmodel.Model, st cimp.System[*gcmodel.Local]) *View {
	return NewView(gcmodel.Global{Model: m, State: st})
}

func sysOf(st cimp.System[*gcmodel.Local]) *gcmodel.SysLocal {
	return st.Procs[len(st.Procs)-1].Data.Sys
}

func mutOf(st cimp.System[*gcmodel.Local], i int) *gcmodel.MutLocal {
	return st.Procs[i+1].Data.Mut
}

func gcOf(st cimp.System[*gcmodel.Local]) *gcmodel.GCLocal {
	return st.Procs[0].Data.GC
}

// TestInitialStateSatisfiesAll (E16 part 1): the initial state satisfies
// the full invariant battery — the invariants are satisfiable and the
// model is not vacuous.
func TestInitialStateSatisfiesAll(t *testing.T) {
	m, st := scenario(t)
	v := view(m, st)
	for _, c := range All() {
		if err := c.Pred(v); err != nil {
			t.Fatalf("%s fails on the initial state: %v", c.Name, err)
		}
	}
}

// TestMidMarkingStateSatisfiesAll (E16 part 2): a hand-crafted state in
// the middle of marking — flipped sense, greys on several work-lists, a
// pending insertion — satisfies the battery, so the invariants are
// satisfiable in their interesting regime, not just initially.
func TestMidMarkingStateSatisfiesAll(t *testing.T) {
	m, st := scenario(t)
	sys := sysOf(st)
	sys.FM = true // marking sense flipped
	sys.FA = true
	sys.Phase = gcmodel.PhMark
	sys.Tag = gcmodel.TagRoots
	// Objects 0 and 1 marked; 1 grey (collector work-list), 0 black.
	sys.Heap.SetFlag(0, true)
	sys.Heap.SetFlag(1, true)
	gcOf(st).W = heap.SetOf(1)
	gcOf(st).FM = true
	gcOf(st).FA = true
	gcOf(st).Phase = gcmodel.PhMark
	// Mutator 0 completed its root scan; mutator 1 mid-scan with a grey
	// of its own.
	mutOf(st, 0).HP = gcmodel.HpIdleMarkSweep
	mutOf(st, 0).RootsDone = true
	mutOf(st, 1).HP = gcmodel.HpIdleMarkSweep
	sys.Heap.SetFlag(3, true)
	mutOf(st, 1).WM = heap.SetOf(3)
	// Mutator 0 has a pending (marked) insertion 2 ← marked object 1.
	sys.Heap.SetFlag(2, true)
	mutOf(st, 0).WM = heap.SetOf(2)
	sys.Bufs[1] = []gcmodel.WAct{{Loc: gcmodel.Loc{Kind: gcmodel.LField, R: 0, F: 1}, Val: gcmodel.RefVal(2)}}

	v := view(m, st)
	for _, c := range All() {
		if err := c.Pred(v); err != nil {
			t.Fatalf("%s fails on the mid-marking state: %v", c.Name, err)
		}
	}
	// Sanity: the view classified colors as intended.
	if !v.Black.Has(0) || !v.Grey.Has(1) || !v.White.Empty() == false && v.White.Has(1) {
		t.Fatalf("colors: black=%v grey=%v white=%v", v.Black, v.Grey, v.White)
	}
}

func TestValidRefsDetectsDanglingRoot(t *testing.T) {
	m, st := scenario(t)
	sysOf(st).Heap.Free(3) // mutator 1 still roots 3
	if err := ValidRefs.Pred(view(m, st)); err == nil {
		t.Fatal("dangling root not detected")
	}
}

func TestValidRefsCountsBufferedInsertionsAsRoots(t *testing.T) {
	m, st := scenario(t)
	sys := sysOf(st)
	// Mutator 0's buffer holds an insertion of 3; drop 3 from all roots
	// and free it: the pending write is the only witness.
	sys.Bufs[1] = []gcmodel.WAct{{Loc: gcmodel.Loc{Kind: gcmodel.LField, R: 0, F: 1}, Val: gcmodel.RefVal(3)}}
	mutOf(st, 1).Roots = 0
	sys.Heap.Free(3)
	err := ValidRefs.Pred(view(m, st))
	if err == nil {
		t.Fatal("freed pending-insertion target not detected")
	}
	if !strings.Contains(err.Error(), "{3}") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestStrongTricolorDetectsBlackToWhite(t *testing.T) {
	m, st := scenario(t)
	sys := sysOf(st)
	sys.FM = true
	sys.Heap.SetFlag(0, true) // 0 black (marked, no work-list)
	// 0.0 → 1, and 1 is white under f_M=true.
	if err := StrongTricolor.Pred(view(m, st)); err == nil {
		t.Fatal("black→white edge not detected")
	}
	// Making 1 grey (on a work-list) repairs it.
	gcOf(st).W = heap.SetOf(1)
	sys.Heap.SetFlag(1, true)
	if err := StrongTricolor.Pred(view(m, st)); err != nil {
		t.Fatalf("grey target still flagged: %v", err)
	}
}

func TestWeakTricolorAcceptsGreyProtectedWhite(t *testing.T) {
	m, st := scenario(t)
	sys := sysOf(st)
	sys.FM = true
	// 3 black, pointing at white 2; 1 grey with a white chain 1→2.
	sys.Heap.SetFlag(3, true)
	sys.Heap.Store(3, 0, 2)
	sys.Heap.SetFlag(1, true)
	gcOf(st).W = heap.SetOf(1)
	if err := WeakTricolor.Pred(view(m, st)); err != nil {
		t.Fatalf("grey-protected white rejected: %v", err)
	}
	// Strong tricolor rightly complains about the same state.
	if err := StrongTricolor.Pred(view(m, st)); err == nil {
		t.Fatal("strong tricolor should reject black→white even when grey-protected")
	}
	// Severing the chain (1.0 ← nil) breaks protection.
	sys.Heap.Store(1, 0, heap.NilRef)
	if err := WeakTricolor.Pred(view(m, st)); err == nil {
		t.Fatal("unprotected white not detected")
	}
}

func TestValidWDetectsOverlapAndUnmarkedGreys(t *testing.T) {
	m, st := scenario(t)
	sys := sysOf(st)
	sys.FM = true

	// Unmarked grey on the collector's work-list.
	gcOf(st).W = heap.SetOf(2) // 2 has flag=false → unmarked under f_M=true
	if err := ValidW.Pred(view(m, st)); err == nil {
		t.Fatal("unmarked grey not detected")
	}
	sys.Heap.SetFlag(2, true)
	if err := ValidW.Pred(view(m, st)); err != nil {
		t.Fatalf("marked grey rejected: %v", err)
	}

	// Overlapping work-lists violate disjointness.
	mutOf(st, 0).WM = heap.SetOf(2)
	if err := ValidW.Pred(view(m, st)); err == nil {
		t.Fatal("overlapping work-lists not detected")
	}
	mutOf(st, 0).WM = 0

	// A pending mark write that does not use f_M.
	sys.Bufs[1] = []gcmodel.WAct{{Loc: gcmodel.Loc{Kind: gcmodel.LMark, R: 1}, Val: gcmodel.BoolVal(false)}}
	if err := ValidW.Pred(view(m, st)); err == nil {
		t.Fatal("wrong-sense pending mark not detected")
	}
}

func TestValidWToleratesInFlightCAS(t *testing.T) {
	m, st := scenario(t)
	sys := sysOf(st)
	sys.FM = true
	// Mutator 0 (PID 1) holds the TSO lock mid-CAS with an uncommitted
	// mark and ghost_honorary_grey set: exempt from the marked-on-heap
	// obligation.
	sys.Lock = 1
	mutOf(st, 0).GHG = 2
	sys.Bufs[1] = []gcmodel.WAct{{Loc: gcmodel.Loc{Kind: gcmodel.LMark, R: 2}, Val: gcmodel.BoolVal(true)}}
	if err := ValidW.Pred(view(m, st)); err != nil {
		t.Fatalf("in-flight CAS rejected: %v", err)
	}
	// Once the lock is dropped the obligation applies.
	sys.Lock = -1
	sys.Bufs[1] = nil
	if err := ValidW.Pred(view(m, st)); err == nil {
		t.Fatal("post-CAS unmarked ghost grey not detected")
	}
}

func TestMarkedDeletionsUsesBufferChain(t *testing.T) {
	m, st := scenario(t)
	sys := sysOf(st)
	sys.FM = true
	mutOf(st, 0).HP = gcmodel.HpIdleMarkSweep
	// Heap: 0.0 = 1 (1 unmarked). Two pending writes to 0.0 by mutator
	// 0: first overwrites 1 (unmarked — deletion violation), second
	// overwrites the first write's value.
	sys.Bufs[1] = []gcmodel.WAct{
		{Loc: gcmodel.Loc{Kind: gcmodel.LField, R: 0, F: 0}, Val: gcmodel.RefVal(heap.NilRef)},
	}
	if err := MutatorPhase.Pred(view(m, st)); err == nil {
		t.Fatal("unmarked deletion not detected")
	}
	// Marking the victim repairs it.
	sys.Heap.SetFlag(1, true)
	gcOf(st).W = heap.SetOf(1)
	if err := MutatorPhase.Pred(view(m, st)); err != nil {
		t.Fatalf("marked deletion rejected: %v", err)
	}
	// Chained writes: the second write's victim is the first write's
	// value (2, unmarked) — not the committed field.
	sys.Bufs[1] = []gcmodel.WAct{
		{Loc: gcmodel.Loc{Kind: gcmodel.LField, R: 0, F: 0}, Val: gcmodel.RefVal(2)},
		{Loc: gcmodel.Loc{Kind: gcmodel.LField, R: 0, F: 0}, Val: gcmodel.RefVal(heap.NilRef)},
	}
	if err := MutatorPhase.Pred(view(m, st)); err == nil {
		t.Fatal("chained-buffer deletion of unmarked 2 not detected")
	}
}

func TestMarkedInsertionsPerPhase(t *testing.T) {
	m, st := scenario(t)
	sys := sysOf(st)
	sys.FM = true
	// A pending white insertion by mutator 0.
	sys.Bufs[1] = []gcmodel.WAct{
		{Loc: gcmodel.Loc{Kind: gcmodel.LField, R: 0, F: 1}, Val: gcmodel.RefVal(2)},
	}
	// In hp_Idle and hp_IdleInit phases the insertion obligation does
	// not apply (barriers may be off).
	mutOf(st, 0).HP = gcmodel.HpIdle
	if err := MutatorPhase.Pred(view(m, st)); err != nil {
		t.Fatalf("hp_Idle: %v", err)
	}
	// From hp_InitMark on it does.
	mutOf(st, 0).HP = gcmodel.HpInitMark
	if err := MutatorPhase.Pred(view(m, st)); err == nil {
		t.Fatal("white insertion not detected in hp_InitMark")
	}
}

func TestReachableSnapshotAfterRootsDone(t *testing.T) {
	m, st := scenario(t)
	sys := sysOf(st)
	sys.FM = true
	mu := mutOf(st, 0)
	mu.HP = gcmodel.HpIdleMarkSweep
	mu.RootsDone = true
	// Mutator 0 roots {0}; 0 marked-black but its child 1 is white and
	// unprotected → snapshot violation.
	sys.Heap.SetFlag(0, true)
	if err := MutatorPhase.Pred(view(m, st)); err == nil {
		t.Fatal("unprotected reachable white not detected after root scan")
	}
	// Grey-protecting the chain fixes it: 1 grey, 2 white-reachable.
	sys.Heap.SetFlag(1, true)
	gcOf(st).W = heap.SetOf(1)
	if err := MutatorPhase.Pred(view(m, st)); err != nil {
		t.Fatalf("grey-protected snapshot rejected: %v", err)
	}
}

func TestSweepSafetyRequiresNoGreys(t *testing.T) {
	m, st := scenario(t)
	sys := sysOf(st)
	sys.FM = true
	gcOf(st).Phase = gcmodel.PhSweep
	// All reachable objects black.
	for _, r := range []heap.Ref{0, 1, 2, 3} {
		sys.Heap.SetFlag(r, true)
	}
	if err := SweepSafety.Pred(view(m, st)); err != nil {
		t.Fatalf("clean sweep state rejected: %v", err)
	}
	gcOf(st).W = heap.SetOf(2)
	if err := SweepSafety.Pred(view(m, st)); err == nil {
		t.Fatal("grey during sweep not detected")
	}
}

func TestTSOControlLimitsPendingControlWrites(t *testing.T) {
	m, st := scenario(t)
	sys := sysOf(st)
	// Two phase writes pending at the collector are allowed.
	sys.Bufs[0] = []gcmodel.WAct{
		{Loc: gcmodel.Loc{Kind: gcmodel.LPhase}, Val: gcmodel.PhaseVal(gcmodel.PhSweep)},
		{Loc: gcmodel.Loc{Kind: gcmodel.LPhase}, Val: gcmodel.PhaseVal(gcmodel.PhIdle)},
	}
	if err := TSOControl.Pred(view(m, st)); err != nil {
		t.Fatalf("two pending phase writes rejected: %v", err)
	}
	// Three are not.
	sys.Bufs[0] = append(sys.Bufs[0], gcmodel.WAct{Loc: gcmodel.Loc{Kind: gcmodel.LPhase}})
	if err := TSOControl.Pred(view(m, st)); err == nil {
		t.Fatal("three pending phase writes accepted")
	}
	// A mutator must never have pending control writes.
	sys.Bufs[0] = nil
	sys.Bufs[1] = []gcmodel.WAct{{Loc: gcmodel.Loc{Kind: gcmodel.LFM}, Val: 1}}
	if err := TSOControl.Pred(view(m, st)); err == nil {
		t.Fatal("mutator control write accepted")
	}
}

func TestGreyProtectedComputation(t *testing.T) {
	m, st := scenario(t)
	sys := sysOf(st)
	sys.FM = true
	// Grey 0 → white 1 → white 2; 3 white and unreachable from greys.
	sys.Heap.SetFlag(0, true)
	gcOf(st).W = heap.SetOf(0)
	v := view(m, st)
	for _, r := range []heap.Ref{0, 1, 2} {
		if !v.GreyProtected.Has(r) {
			t.Fatalf("%d not grey-protected (set=%v)", r, v.GreyProtected)
		}
	}
	if v.GreyProtected.Has(3) {
		t.Fatal("3 spuriously protected")
	}
}

func TestMutExtraRootsIncludesDeletionBarrierTarget(t *testing.T) {
	m, st := scenario(t)
	mu := mutOf(st, 0)
	mu.InMark = true
	mu.InMarkDel = true
	mu.MRef = 2
	v := view(m, st)
	if !v.MutRoots(0).Has(2) {
		t.Fatal("in-flight deletion-barrier target not treated as root")
	}
	mu.InMarkDel = false
	v = view(m, st)
	if v.MutRoots(0).Has(2) {
		t.Fatal("non-deletion mark target treated as root")
	}
}

func TestSysPhaseIdleHandshake(t *testing.T) {
	m, st := scenario(t)
	sys := sysOf(st)
	sys.Tag = gcmodel.TagIdle
	// f_A = f_M = false, heap all-black (flags false): fine.
	if err := SysPhase.Pred(view(m, st)); err != nil {
		t.Fatalf("initial idle handshake state rejected: %v", err)
	}
	// A grey during the idle handshake violates hp_Idle.
	gcOf(st).W = heap.SetOf(0)
	if err := SysPhase.Pred(view(m, st)); err == nil {
		t.Fatal("grey during idle handshake accepted")
	}
	gcOf(st).W = 0
	// f_A = f_M but a white object: violation.
	sys.Heap.SetFlag(2, true) // flag=true ≠ f_M=false → white
	if err := SysPhase.Pred(view(m, st)); err == nil {
		t.Fatal("white object with f_A = f_M accepted during idle handshake")
	}
	// After the flip (f_M=true as the collector sees it): heap must be
	// all white; object 2 (flag=true) is now marked → violation.
	gcOf(st).FM = true
	sys.FM = true
	if err := SysPhase.Pred(view(m, st)); err == nil {
		t.Fatal("marked object with f_A ≠ f_M accepted during idle handshake")
	}
}

func TestSysPhaseIdleInitNoBlacks(t *testing.T) {
	m, st := scenario(t)
	sys := sysOf(st)
	sys.Tag = gcmodel.TagIdleInit
	sys.FM = true // flipped: heap all white now
	if err := SysPhase.Pred(view(m, st)); err != nil {
		t.Fatalf("white heap rejected: %v", err)
	}
	sys.Heap.SetFlag(1, true) // marked, not on any work-list → black
	if err := SysPhase.Pred(view(m, st)); err == nil {
		t.Fatal("black object during idle-init handshake accepted")
	}
	// Grey is fine: put it on a work-list.
	gcOf(st).W = heap.SetOf(1)
	if err := SysPhase.Pred(view(m, st)); err != nil {
		t.Fatalf("grey during idle-init rejected: %v", err)
	}
}

func TestSysPhaseInitMarkBeforeFACommit(t *testing.T) {
	m, st := scenario(t)
	sys := sysOf(st)
	sys.Tag = gcmodel.TagInitMark
	sys.FM = true
	gcOf(st).FM = true
	// The f_A ← f_M write is still in the collector's buffer.
	sys.Bufs[0] = []gcmodel.WAct{{Loc: gcmodel.Loc{Kind: gcmodel.LFA}, Val: gcmodel.BoolVal(true)}}
	if err := SysPhase.Pred(view(m, st)); err != nil {
		t.Fatalf("clean pre-commit state rejected: %v", err)
	}
	sys.Heap.SetFlag(0, true) // a black before f_A commits: violation
	if err := SysPhase.Pred(view(m, st)); err == nil {
		t.Fatal("black before f_A commit accepted")
	}
	// Once committed (f_A = f_M in memory), blacks are allowed.
	sys.Bufs[0] = nil
	sys.FA = true
	if err := SysPhase.Pred(view(m, st)); err != nil {
		t.Fatalf("black after f_A commit rejected: %v", err)
	}
}

func TestGCWEmptyRequiresPendingWitness(t *testing.T) {
	m, st := scenario(t)
	sys := sysOf(st)
	sys.FM = true
	sys.Tag = gcmodel.TagWork
	// Move the collector to the work-handshake wait label so the
	// invariant applies: easiest is to check the predicate's guard by
	// leaving the program counter alone (not at wait_all) — then the
	// invariant is vacuous.
	mu := mutOf(st, 0)
	sys.Heap.SetFlag(2, true)
	mu.WM = heap.SetOf(2)
	sys.Pending[0] = false
	sys.Pending[1] = false
	if err := GCWEmpty.Pred(view(m, st)); err != nil {
		t.Fatalf("invariant applied outside the wait window: %v", err)
	}
}

func TestViewFMUsesCollectorPerspective(t *testing.T) {
	m, st := scenario(t)
	sys := sysOf(st)
	// Memory f_M false, but the collector has a pending flip: the color
	// interpretation must follow the collector's (authoritative) view.
	sys.Bufs[0] = []gcmodel.WAct{{Loc: gcmodel.Loc{Kind: gcmodel.LFM}, Val: gcmodel.BoolVal(true)}}
	v := view(m, st)
	if !v.FM {
		t.Fatal("view ignored the collector's buffered f_M write")
	}
	// All objects (flag=false) are white under the new sense.
	if v.White.Len() != 4 || !v.Marked.Empty() {
		t.Fatalf("colors under pending flip: white=%v marked=%v", v.White, v.Marked)
	}
}

// TestViewAndBatteryAllocations: checking a clean state allocates the
// View and nothing else — no work-list slice, no names. The states are
// engine-produced (a few steps into the two-mutator scenario, past the
// first handshake so the phase-keyed checks have work), so the
// collector's "at" test reads its configuration's cached heads.
func TestViewAndBatteryAllocations(t *testing.T) {
	m, st := scenario(t)
	checks := All()
	for step := 0; step < 40; step++ {
		var next cimp.System[*gcmodel.Local]
		n := 0
		m.Successors(st, func(ns cimp.System[*gcmodel.Local], _ cimp.Event) {
			if n == step%3 || n == 0 {
				next = ns
			}
			n++
		})
		if n == 0 {
			t.Fatal("scenario deadlocked")
		}
		st = next
		g := gcmodel.Global{Model: m, State: st}
		allocs := testing.AllocsPerRun(20, func() {
			v := NewView(g)
			for _, c := range checks {
				if err := c.Pred(v); err != nil {
					t.Fatalf("step %d: %s: %v", step, c.Name, err)
				}
			}
		})
		if allocs > 1 {
			t.Fatalf("step %d: NewView and the battery allocate %v objects on a clean state, want at most 1", step, allocs)
		}
	}
}
