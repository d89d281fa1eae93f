package gcrt

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Mutator is a mutator thread's handle: its roots, its private grey
// work-list, its barrier buffer and allocation caches, and its handshake
// mailbox. Each Mutator must be driven by a single goroutine; the
// collector touches it only while it is parked.
//
// The operations mirror paper Figure 6: Load, Store (with deletion and
// insertion barriers), Alloc, and Discard — plus SafePoint, the GC-safe
// point a real compiler would emit at backward branches and call returns,
// and Park/Unpark for blocking externally.
type Mutator struct {
	rt *Runtime // gcrt:guard immutable
	id int      // gcrt:guard immutable

	// roots is the mutator's root set (stack slots and registers),
	// addressed by the caller as dense indexes.
	// gcrt:guard owner(mutator)
	roots []Obj
	// wl is the private grey work-list W_m.
	// gcrt:guard owner(mutator)
	wl []Obj
	// tlab holds the per-mutator allocation cache behind Alloc (tlab.go).
	// gcrt:guard owner(mutator)
	tlab []Obj
	// bbuf and bcap are the batched write-barrier buffer (barrier.go).
	bbuf []Obj // gcrt:guard owner(mutator)
	bcap int   // gcrt:guard immutable

	// Handshake mailbox: the collector bumps hsWanted to the new round
	// number; the mutator (or the collector, while the mutator is
	// parked) acknowledges by storing the round into hsAcked. lastAck
	// is the mutator goroutine's private copy of hsAcked, so the
	// SafePoint fast path is a single atomic load and a compare.
	hsWanted atomic.Int64 // gcrt:guard atomic
	hsAcked  atomic.Int64 // gcrt:guard atomic
	lastAck  int64        // gcrt:guard owner(mutator)

	parked atomic.Bool  // gcrt:guard atomic
	parkMu sync.Mutex   // gcrt:guard atomic
	served atomic.Int64 // gcrt:guard atomic

	// Pause accounting: the longest time this mutator has been held at a
	// safe point.
	pauseMax atomic.Int64 // gcrt:guard atomic

	// ops counts operations performed (stats).
	// gcrt:guard owner(mutator)
	ops int64
	// oracleTick is the sampling counter for online invariant checks.
	// gcrt:guard owner(mutator)
	oracleTick int64

	// stats are the counters this mutator's operations write (stats.go).
	// Last, so that its trailing padding also keeps the fields above off
	// the lines of the next mutator allocated.
	// gcrt:guard immutable
	stats mutatorStats
}

// ID returns the mutator's ordinal.
func (m *Mutator) ID() int { return m.id }

// NumRoots reports the size of the root set.
func (m *Mutator) NumRoots() int { return len(m.roots) }

// Root returns the object held in root slot i.
func (m *Mutator) Root(i int) Obj { return m.roots[i] }

// Roots returns a copy of the root set.
func (m *Mutator) Roots() []Obj { return append([]Obj(nil), m.roots...) }

// Alloc allocates a new object with the current allocation color f_A,
// pushes it as a new root, and returns its root index; -1 when the arena
// is exhausted. (Figure 6 Alloc.) Slots come from the mutator's TLAB
// (tlab.go).
func (m *Mutator) Alloc() int {
	m.ops++
	o := m.allocSlot()
	if o == NilObj {
		return -1
	}
	m.roots = append(m.roots, o)
	return len(m.roots) - 1
}

// AdoptRoot pushes an externally supplied object reference as a new
// root and returns its index. The caller must guarantee o stays
// reachable (rooted elsewhere or the world quiesced) until the adoption
// returns; workload setup uses it to hand a shared hub object to every
// mutator before concurrency starts.
func (m *Mutator) AdoptRoot(o Obj) int {
	m.ops++
	m.roots = append(m.roots, o)
	return len(m.roots) - 1
}

// Load reads field f of the object in root slot src and pushes the
// result as a new root, returning its index; -1 if the field was NULL.
// Heap reads carry no barrier (§2.1: a read barrier would be too
// expensive; the snapshot argument covers loaded references instead).
func (m *Mutator) Load(src, f int) int {
	m.ops++
	v := m.rt.arena.LoadField(m.roots[src], f)
	if v == NilObj {
		return -1
	}
	m.roots = append(m.roots, v)
	return len(m.roots) - 1
}

// Store writes the object in root slot dst into field f of the object in
// root slot src, running the deletion barrier on the overwritten value
// and the insertion barrier on the stored value first (Figure 6 Store).
// Pass dst = -1 to store NULL (pure deletion). Barrier targets go
// through the batched barrier buffer (barrier.go) unless buffering is
// disabled.
func (m *Mutator) Store(src, f, dst int) {
	m.ops++
	srcObj := m.roots[src]
	dstObj := NilObj
	if dst >= 0 {
		dstObj = m.roots[dst]
	}
	ph := Phase(m.rt.phase.Load())
	old := m.rt.arena.LoadField(srcObj, f)
	if !m.rt.opt.NoDeletionBarrier {
		m.barrierHit(old) // deletion (snapshot) barrier
	}
	if !m.rt.opt.NoInsertionBarrier {
		m.barrierHit(dstObj) // insertion (incremental-update) barrier
	}
	if o := m.rt.oracle; o != nil {
		o.checkStore(m, old, dstObj, ph)
	}
	m.rt.arena.StoreField(srcObj, f, dstObj)
}

// Discard drops root slot i (Figure 6 Discard). The last root moves into
// the vacated slot, so indexes other than i and the last are stable.
func (m *Mutator) Discard(i int) {
	m.ops++
	last := len(m.roots) - 1
	m.roots[i] = m.roots[last]
	m.roots = m.roots[:last]
}

// DiscardAll empties the root set.
func (m *Mutator) DiscardAll() {
	m.ops++
	m.roots = m.roots[:0]
}

// SafePoint polls for a pending soft handshake and, if one is pending,
// performs the requested work and acknowledges (Figure 4, mutator side).
// Call it as often as a compiler would emit GC-safe points; elemental
// operations (Load/Store/Alloc and SafePoint itself) are free of safe
// points and cannot be interrupted by the collector.
//
// The fast path is one atomic load: the collector publishes a round
// number, and the mutator compares it against its private copy of the
// last round it acknowledged.
func (m *Mutator) SafePoint() {
	want := m.hsWanted.Load()
	if want == m.lastAck {
		return
	}
	start := time.Now()
	m.serviceHandshake(HSType(m.rt.hsType.Load()))
	m.lastAck = want
	m.hsAcked.Store(want)
	m.served.Add(1)
	m.recordPause(time.Since(start))
}

// recordPause tracks the maximum pause this mutator observed.
func (m *Mutator) recordPause(d time.Duration) {
	n := d.Nanoseconds()
	for {
		cur := m.pauseMax.Load()
		if n <= cur || m.pauseMax.CompareAndSwap(cur, n) {
			break
		}
	}
}

// MaxPause reports the largest single pause this mutator has observed at
// a safe point servicing a handshake.
func (m *Mutator) MaxPause() time.Duration { return time.Duration(m.pauseMax.Load()) }

// serviceHandshake performs the mutator-side work of the current round.
// Every round starts by draining the barrier buffer — the handshake is
// the runtime's MFENCE point (barrier.go). The caller is the mutator's
// goroutine at a safe point, or the collector holding parkMu while the
// mutator is parked, which excludes Unpark until the work completes.
func (m *Mutator) serviceHandshake(t HSType) {
	m.flushBarriers()
	switch t {
	case HSGetRoots:
		m.markRoots()
		m.rt.transfer(m.wl)
		m.wl = m.wl[:0]
	case HSGetWork:
		m.rt.transfer(m.wl)
		m.wl = m.wl[:0]
	case HSValidate:
		if o := m.rt.oracle; o != nil {
			o.validateMutator(m)
		}
	}
}

// markRoots marks every root into the private work-list: the mutator's
// share of a get-roots round. The caller must be the mutator's goroutine,
// or the collector while the mutator is parked.
func (m *Mutator) markRoots() {
	var c counts
	for _, r := range m.roots {
		m.rt.mark(r, &m.wl, &c)
	}
	m.stats.publish(&c)
}

// Served reports how many handshakes this mutator has completed
// (including ones the collector performed on its behalf while parked).
// Test harnesses use it to step mutators to precise protocol points.
func (m *Mutator) Served() int64 { return m.served.Load() }

// AwaitHandshakes calls SafePoint until the mutator has completed n
// handshakes in total, yielding between polls.
func (m *Mutator) AwaitHandshakes(n int64) {
	for m.served.Load() < n {
		m.SafePoint()
		runtime.Gosched()
	}
}

// Park declares the mutator blocked (e.g. waiting on I/O): it sits at a
// permanent safe point and the collector performs handshake work on its
// behalf. The TLAB reservation is returned to the shared free lists so
// other mutators can allocate from it while this one is blocked.
func (m *Mutator) Park() {
	m.ReturnTLAB()
	m.parkMu.Lock()
	m.parked.Store(true)
	m.parkMu.Unlock()
}

// Unpark resumes the mutator. It synchronizes with any in-flight
// collector-side handshake work before returning, and refreshes the
// mutator's private view of the rounds the collector completed on its
// behalf.
func (m *Mutator) Unpark() {
	m.parkMu.Lock()
	m.parked.Store(false)
	m.lastAck = m.hsAcked.Load()
	m.parkMu.Unlock()
}

// Ops reports the number of heap operations performed.
func (m *Mutator) Ops() int64 { return m.ops }
