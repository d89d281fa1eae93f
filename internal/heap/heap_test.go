package heap

import (
	"testing"
	"testing/quick"
)

func build(t *testing.T, n int, objs map[Ref][]Ref) Heap {
	t.Helper()
	h := New(n)
	for r, fs := range objs {
		h.AllocAt(r, len(fs), false)
		for i, f := range fs {
			h.Store(r, Field(i), f)
		}
	}
	return h
}

func TestAllocFreeValid(t *testing.T) {
	h := New(3)
	if h.Valid(0) || h.Valid(NilRef) || h.Valid(99) {
		t.Fatal("empty heap claims valid refs")
	}
	h.AllocAt(1, 2, true)
	if !h.Valid(1) {
		t.Fatal("allocated ref invalid")
	}
	if got := h.Load(1, 0); got != NilRef {
		t.Fatalf("fresh field = %d, want NilRef", got)
	}
	if !h.Obj(1).Flag {
		t.Fatal("flag not set at allocation")
	}
	h.Free(1)
	if h.Valid(1) {
		t.Fatal("freed ref still valid")
	}
	if got := len(h.FreeRefs()); got != 3 {
		t.Fatalf("free refs = %d, want 3", got)
	}
}

func TestReachableFollowsEdges(t *testing.T) {
	h := build(t, 5, map[Ref][]Ref{
		0: {1},
		1: {2},
		2: {NilRef},
		3: {4},
		4: {NilRef},
	})
	got := h.Reachable(SetOf(0))
	if want := SetOf(0, 1, 2); got != want {
		t.Fatalf("reachable = %v, want %v", got, want)
	}
	// 3,4 unreachable from 0.
	if got.Has(3) || got.Has(4) {
		t.Fatal("unreachable refs included")
	}
}

func TestReachableHandlesCycles(t *testing.T) {
	h := build(t, 3, map[Ref][]Ref{
		0: {1},
		1: {2},
		2: {0},
	})
	if got := h.Reachable(SetOf(0)); got != SetOf(0, 1, 2) {
		t.Fatalf("cycle reachability = %v", got)
	}
}

func TestReachableIgnoresDanglingRoots(t *testing.T) {
	h := build(t, 3, map[Ref][]Ref{0: {NilRef}})
	if got := h.Reachable(SetOf(0, 2)); got != SetOf(0) {
		t.Fatalf("reachable = %v, want {0}", got)
	}
}

func TestReachableViaStopsAtBarrierNodes(t *testing.T) {
	// 0 → 1 → 2 where via(1) is false: traversal includes 1 but must not
	// continue through it.
	h := build(t, 3, map[Ref][]Ref{
		0: {1},
		1: {2},
		2: {NilRef},
	})
	got := h.ReachableVia(SetOf(0), func(r Ref) bool { return r != 1 })
	if want := SetOf(0, 1); got != want {
		t.Fatalf("via-reachable = %v, want %v", got, want)
	}
	// A start node failing via is still traversed out of.
	got = h.ReachableVia(SetOf(1), func(r Ref) bool { return false })
	if want := SetOf(1, 2); got != want {
		t.Fatalf("start-node traversal = %v, want %v", got, want)
	}
}

func TestReachableViaModelsGreyProtection(t *testing.T) {
	// Grey G(0) → white 1 → white 2: both whites are grey-protected.
	// Black 3 → white 2 as well; the chain from 0 protects 2.
	h := build(t, 4, map[Ref][]Ref{
		0: {1},
		1: {2},
		2: {NilRef},
		3: {2},
	})
	white := func(r Ref) bool { return r == 1 || r == 2 }
	protected := h.ReachableVia(SetOf(0), white)
	if !protected.Has(2) || !protected.Has(1) {
		t.Fatalf("grey protection = %v", protected)
	}
	// Deleting the edge 1→2 breaks protection.
	h.Store(1, 0, NilRef)
	protected = h.ReachableVia(SetOf(0), white)
	if protected.Has(2) {
		t.Fatal("2 still protected after deleting the white chain")
	}
}

func TestMarkedDependsOnSense(t *testing.T) {
	h := build(t, 1, map[Ref][]Ref{0: {}})
	if !h.Marked(0, false) {
		t.Fatal("flag=false should be marked when f_M=false")
	}
	if h.Marked(0, true) {
		t.Fatal("flag=false should be unmarked when f_M=true")
	}
	h.SetFlag(0, true)
	if !h.Marked(0, true) {
		t.Fatal("flag=true should be marked when f_M=true")
	}
}

func TestPointersTo(t *testing.T) {
	h := build(t, 4, map[Ref][]Ref{
		0: {2, 2},
		1: {2},
		2: {NilRef, NilRef},
	})
	es := h.PointersTo(2)
	if len(es) != 3 {
		t.Fatalf("edges to 2: %v", es)
	}
}

func TestCloneIsDeep(t *testing.T) {
	h := build(t, 2, map[Ref][]Ref{0: {1}, 1: {NilRef}})
	c := h.Clone()
	c.Store(0, 0, NilRef)
	c.SetFlag(1, true)
	c.Free(1)
	if h.Load(0, 0) != 1 || h.Obj(1).Flag || !h.Valid(1) {
		t.Fatal("clone shares structure with original")
	}
}

// Property: reachability is monotone in the root set.
func TestReachableMonotoneQuick(t *testing.T) {
	f := func(edges []uint8, roots1, roots2 uint8) bool {
		const n = 6
		h := New(n)
		for i := 0; i < n; i++ {
			h.AllocAt(Ref(i), 1, false)
		}
		for i, e := range edges {
			h.Store(Ref(i%n), 0, Ref(int(e)%n))
		}
		r1 := RefSet(roots1 % 63)
		r2 := r1.Union(RefSet(roots2 % 63))
		return h.Reachable(r1).SubsetOf(h.Reachable(r2))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Reachable is a fixpoint — re-running from the result set adds
// nothing.
func TestReachableFixpointQuick(t *testing.T) {
	f := func(edges []uint8, roots uint8) bool {
		const n = 6
		h := New(n)
		for i := 0; i < n; i++ {
			h.AllocAt(Ref(i), 2, false)
		}
		for i, e := range edges {
			h.Store(Ref(i%n), Field(i%2), Ref(int(e)%n))
		}
		r := h.Reachable(RefSet(roots % 63))
		return h.Reachable(r) == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: ReachableVia with an always-true predicate equals Reachable.
func TestReachableViaTotalQuick(t *testing.T) {
	f := func(edges []uint8, roots uint8) bool {
		const n = 5
		h := New(n)
		for i := 0; i < n; i++ {
			h.AllocAt(Ref(i), 1, false)
		}
		for i, e := range edges {
			h.Store(Ref(i%n), 0, Ref(int(e)%n))
		}
		rs := RefSet(roots % 31)
		return h.ReachableVia(rs, func(Ref) bool { return true }) == h.Reachable(rs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
