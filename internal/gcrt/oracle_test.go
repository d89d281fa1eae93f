package gcrt

import "testing"

// Deterministic micro-scenarios for the online invariant oracle: each
// ablated barrier direction is caught at the exact protocol point the
// paper's obligations guard, with no workload randomness involved.

// Deletion direction: sever an object's only heap edge during marking
// with the deletion barrier ablated. The victim is white (the cycle
// flipped the sense) and no barrier record exists, so the oracle must
// report marked_deletions on the spot — and the sweep then genuinely
// loses the object, which is what makes the finding meaningful.
func TestOracleCatchesAblatedDeletion(t *testing.T) {
	rt := New(Options{Slots: 64, Fields: 1, Mutators: 1, NoDeletionBarrier: true})
	o := rt.EnableOracle(OracleOptions{SampleEvery: 1})
	m := rt.Mutator(0)
	a := m.Alloc()
	b := m.Alloc()
	m.Store(a, 0, b)
	bObj := m.Root(b)
	m.Discard(b) // b reachable only through a.0

	done := make(chan struct{})
	go func() { rt.Collect(); close(done) }()
	m.AwaitHandshakes(4) // PhMark: barriers armed, roots not yet scanned

	m.Store(a, 0, -1) // sever the only edge, no deletion barrier
	if got := o.CountByCheck()[CheckMarkedDeletions]; got != 1 {
		t.Fatalf("marked_deletions = %d after unprotected sever, want 1", got)
	}

	driveUntil(m, done)
	if rt.arena.Allocated(bObj) {
		t.Fatal("object survived; the ablation scenario no longer exercises a real loss")
	}
}

// Insertion direction: store a white object into a black object's field
// during marking with the insertion barrier ablated; the oracle must
// report marked_insertions.
func TestOracleCatchesAblatedInsertion(t *testing.T) {
	rt := New(Options{Slots: 64, Fields: 1, Mutators: 1, NoInsertionBarrier: true})
	o := rt.EnableOracle(OracleOptions{SampleEvery: 1})
	m := rt.Mutator(0)
	a := m.Alloc()
	b := m.Alloc()

	done := make(chan struct{})
	go func() { rt.Collect(); close(done) }()
	m.AwaitHandshakes(4)

	m.Store(a, 0, b) // white target, no insertion barrier record
	if got := o.CountByCheck()[CheckMarkedInsertions]; got != 1 {
		t.Fatalf("marked_insertions = %d after unprotected insert, want 1", got)
	}
	driveUntil(m, done)
}

// The clean configuration must pass the same scenarios silently: the
// barrier buffers the victim, so the store-time obligation holds.
func TestOracleSilentOnCleanBarriers(t *testing.T) {
	rt := New(Options{Slots: 64, Fields: 1, Mutators: 1})
	o := rt.EnableOracle(OracleOptions{SampleEvery: 1})
	m := rt.Mutator(0)
	a := m.Alloc()
	b := m.Alloc()
	m.Store(a, 0, b)
	m.Discard(b)

	done := make(chan struct{})
	go func() { rt.Collect(); close(done) }()
	m.AwaitHandshakes(4)

	m.Store(a, 0, -1)
	c := m.Alloc()
	if c >= 0 {
		m.Store(a, 0, c)
	}
	driveUntil(m, done)
	m.Park() // the audit handshake completes collector-side
	rt.Audit()
	if n := o.FindingCount(); n != 0 {
		t.Fatalf("clean barriers produced %d findings: %v", n, o.Findings())
	}
	if o.Checks() == 0 {
		t.Fatal("oracle ran zero checks — vacuous pass")
	}
}

// The arena scans of Audit, each fed one deterministic violation: an
// allocated object at the stale mark sense between cycles, and a live
// slot on a free list. Each must be reported once, under its own check.
func TestAuditReportsStaleMarkSense(t *testing.T) {
	rt := New(Options{Slots: 64, Fields: 1, Mutators: 1})
	o := rt.EnableOracle(OracleOptions{})
	m := rt.Mutator(0)
	x := m.Root(m.Alloc())
	m.Alloc() // a second object, at the current sense
	m.Park()
	rt.arena.setFlag(x, !rt.FM())
	rt.Audit()
	if got := o.CountByCheck(); got[CheckMarkSense] != 1 || o.FindingCount() != 1 {
		t.Fatalf("findings %v, want one %s", got, CheckMarkSense)
	}
}

func TestAuditReportsLiveSlotOnFreeList(t *testing.T) {
	rt := New(Options{Slots: 64, Fields: 1, Mutators: 1})
	o := rt.EnableOracle(OracleOptions{})
	m := rt.Mutator(0)
	x := m.Root(m.Alloc())
	m.Park()
	rt.arena.returnBatch([]Obj{x}) // still allocated
	rt.Audit()
	if got := o.CountByCheck(); got[CheckFreeList] != 1 || o.FindingCount() != 1 {
		t.Fatalf("findings %v, want one %s", got, CheckFreeList)
	}
}
