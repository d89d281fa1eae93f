package gcrt

// This file implements TLAB-style allocation caches: each mutator
// reserves a batch of free slots from its home shard in one lock
// acquisition and then allocates from the batch with no shared-state
// interaction at all. It is the production-scale generalization of the
// allocation-pool extension the paper devised but did not verify (§4,
// "Representations"):
//
//	"we have devised but not yet verified an extension to the model that
//	would allow mutators to gather pools of unallocated references from
//	which to perform fine-grained allocation without synchronizing. For
//	TSO, we can also perform the marking and initialization of the fields
//	at each allocation without the need for an MFENCE, because publishing
//	the new reference to other mutators can occur only after the prior
//	initializing stores have been flushed."
//
// Reserved slots are invisible to the sweep (their headers stay clear),
// so a TLAB is simply a slice of the free list owned by one thread —
// the same thread-locality argument the paper makes for the work-lists.
// The allocation COLOR is still read per-allocation from f_A, so the
// verified allocation-color discipline (allocate black during marking)
// is untouched; only the free-slot reservation is batched.

// defaultTLABSize is the per-refill reservation when Options.TLABSize
// is zero.
const defaultTLABSize = 64

// tlabRefill reserves a fresh batch from the arena, preferring the
// mutator's home shard. Returns false when every shard is exhausted.
func (m *Mutator) tlabRefill() bool {
	n := m.rt.opt.TLABSize
	if n <= 0 {
		n = defaultTLABSize
	}
	m.tlab = m.rt.arena.reserveBatch(m.tlab, m.id, n)
	if len(m.tlab) == 0 {
		return false
	}
	m.rt.stats.tlabRefills.Add(1)
	return true
}

// allocSlot takes a reserved free slot from the TLAB, refilling it when
// empty, and installs the object. Returns NilObj when the arena is
// exhausted (other mutators' reservations may hold slots).
func (m *Mutator) allocSlot() Obj {
	if len(m.tlab) == 0 && !m.tlabRefill() {
		return NilObj
	}
	o := m.tlab[len(m.tlab)-1]
	m.tlab = m.tlab[:len(m.tlab)-1]
	m.rt.arena.install(o, m.rt.fA.Load())
	return o
}

// ReturnTLAB releases the mutator's reserved slots back to the shared
// free lists so other mutators can allocate them; Park does this
// automatically.
func (m *Mutator) ReturnTLAB() {
	m.rt.arena.returnBatch(m.tlab)
	m.tlab = m.tlab[:0]
}

// TLABSize reports the number of reserved slots currently held in the
// mutator's allocation cache.
func (m *Mutator) TLABSize() int { return len(m.tlab) }
