// Package gcrt is an executable implementation of the verified collector
// kernel: an on-the-fly, concurrent mark-sweep garbage collector in the
// style of Schism's core (paper §2), running real mutator goroutines
// against a simulated heap arena.
//
// The arena substitutes for the raw memory Schism manages: Go's own
// garbage collector owns the host process, so this collector manages
// object slots inside a pre-allocated arena instead — the two collectors
// cannot interfere, while every algorithmically relevant memory access
// (mark flags, control variables, reference fields) goes through
// sync/atomic operations, which on x86 compile to exactly the plain
// MOV / locked CMPXCHG discipline the paper models: plain stores are
// TSO-buffered, the marking CAS is a locked instruction, and the
// handshake fences are sequentially consistent.
//
// The kernel reproduces, at runtime scale, the structures verified in
// the model (package gcmodel): the mark-sense flip (f_M), allocation
// color (f_A), the four-round initialization handshake sequence, ragged
// root-marking and mark-loop-termination handshakes, the Figure 5 mark
// with its CAS-only-on-race fast path, and the Figure 6 mutator
// operations with deletion and insertion barriers.
//
// On top of the verified protocol, the allocator and tracer are built
// for scale: the free list is sharded (per-shard locks), mutators
// allocate from private TLAB-style reservations (tlab.go), barrier
// targets batch in per-mutator buffers drained at handshakes
// (barrier.go), and parallel tracing runs over per-worker work-stealing
// deques (deque.go, parallel.go). None of these change the protocol:
// the phase ladder, the handshake discipline and the marking CAS are
// exactly the verified ones.
package gcrt

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Obj is an object identifier: a slot index in the arena, or NilObj.
type Obj int32

// NilObj is the NULL reference.
const NilObj Obj = -1

// Header bits.
const (
	hdrFlag  uint32 = 1 << 0 // the mark flag; "marked" iff equal to f_M
	hdrAlloc uint32 = 1 << 1 // the slot holds a live object
)

// freeShard is one shard of the free list. Padding keeps two shards'
// locks off the same cache line under contention.
type freeShard struct {
	mu   sync.Mutex // gcrt:guard atomic
	free []Obj      // gcrt:guard by(mu)
	_    [32]byte
}

// Arena is the simulated heap: a fixed pool of object slots, each with a
// header word (mark flag + allocated bit) and a fixed number of
// reference fields. Free slots live on sharded free lists: slot i
// belongs to shard i mod nshards, so concurrent allocators and the
// sweep contend on different locks.
type Arena struct {
	nslots  int             // gcrt:guard immutable
	nfields int             // gcrt:guard immutable
	headers []atomic.Uint32 // gcrt:guard immutable
	// fields holds slot i's references at [i*nfields, (i+1)*nfields).
	// gcrt:guard immutable
	fields []atomic.Int32

	shards []freeShard // gcrt:guard immutable
	// smask is len(shards)-1; len is a power of two.
	// gcrt:guard immutable
	smask uint32

	// Faults counts accesses to unallocated slots — the observable
	// consequence of a lost object. Zero in the verified configuration;
	// non-zero under ablation.
	// gcrt:guard atomic
	Faults atomic.Int64
}

// NewArena creates an arena of nslots objects with nfields reference
// fields each, with the free list sharded by GOMAXPROCS.
func NewArena(nslots, nfields int) *Arena {
	return NewArenaSharded(nslots, nfields, 0)
}

// NewArenaSharded creates an arena with an explicit free-list shard
// count (rounded up to a power of two; 0 picks a default from
// GOMAXPROCS, 1 reproduces the seed's single global free list).
func NewArenaSharded(nslots, nfields, nshards int) *Arena {
	if nshards <= 0 {
		nshards = runtime.GOMAXPROCS(0)
		if nshards > 64 {
			nshards = 64
		}
	}
	pow := 1
	for pow < nshards {
		pow <<= 1
	}
	nshards = pow
	a := &Arena{
		nslots:  nslots,
		nfields: nfields,
		headers: make([]atomic.Uint32, nslots),
		fields:  make([]atomic.Int32, nslots*nfields),
		shards:  make([]freeShard, nshards),
		smask:   uint32(nshards - 1),
	}
	for s := range a.shards {
		a.shards[s].free = make([]Obj, 0, nslots/nshards+1)
	}
	// High slots first within each shard, matching the seed's LIFO order.
	for i := nslots - 1; i >= 0; i-- {
		s := uint32(i) & a.smask
		a.shards[s].free = append(a.shards[s].free, Obj(i))
	}
	return a
}

// NumSlots reports the arena capacity.
func (a *Arena) NumSlots() int { return a.nslots }

// NumFields reports the per-object field count.
func (a *Arena) NumFields() int { return a.nfields }

// NumShards reports the free-list shard count.
func (a *Arena) NumShards() int { return len(a.shards) }

// Allocated reports whether the slot holds a live object.
func (a *Arena) Allocated(o Obj) bool {
	return o != NilObj && a.headers[o].Load()&hdrAlloc != 0
}

// fault records a touch of a dead slot (a lost-object symptom) and
// returns NilObj for the caller to propagate.
func (a *Arena) fault() Obj {
	a.Faults.Add(1)
	return NilObj
}

// LoadField reads field f of object o (a plain x86 load).
func (a *Arena) LoadField(o Obj, f int) Obj {
	if !a.Allocated(o) {
		return a.fault()
	}
	return Obj(a.fields[int(o)*a.nfields+f].Load())
}

// peekField reads field f of object o without the allocated check and
// without recording a fault. The invariant oracle uses it to inspect
// edges of objects it has already validated.
func (a *Arena) peekField(o Obj, f int) Obj {
	return Obj(a.fields[int(o)*a.nfields+f].Load())
}

// StoreField writes field f of object o (a plain x86 store). Callers
// must apply the write barriers first; use Mutator.Store.
func (a *Arena) StoreField(o Obj, f int, v Obj) {
	if !a.Allocated(o) {
		a.fault()
		return
	}
	a.fields[int(o)*a.nfields+f].Store(int32(v))
}

// flag reads the raw mark flag of o.
func (a *Arena) flag(o Obj) bool {
	return a.headers[o].Load()&hdrFlag != 0
}

// casFlag attempts to set the mark flag of o from old to new, preserving
// the allocated bit: the single locked CMPXCHG of Figure 5. It fails only
// if another thread changed the header first.
func (a *Arena) casFlag(o Obj, old, new bool) bool {
	for {
		h := a.headers[o].Load()
		if h&hdrAlloc == 0 {
			a.fault()
			return false
		}
		cur := h&hdrFlag != 0
		if cur != old {
			return false // some other thread won the race
		}
		nh := h &^ hdrFlag
		if new {
			nh |= hdrFlag
		}
		if a.headers[o].CompareAndSwap(h, nh) {
			return true
		}
	}
}

// install writes a live header with NULL fields onto a reserved slot.
// The header store publishes the object; on x86-TSO the initializing
// field stores drain before any later store that could publish the
// reference, which is why no fence is needed — the paper's §4 argument.
func (a *Arena) install(o Obj, flag bool) {
	base := int(o) * a.nfields
	for i := 0; i < a.nfields; i++ {
		a.fields[base+i].Store(int32(NilObj))
	}
	h := hdrAlloc
	if flag {
		h |= hdrFlag
	}
	a.headers[o].Store(h)
}

// reserveBatch moves up to n free slots into dst, preferring the given
// shard and spilling to the others only when it runs dry. One lock
// acquisition per visited shard; reserved slots keep a clear header, so
// they are invisible to the sweep and to LiveCount.
func (a *Arena) reserveBatch(dst []Obj, prefer, n int) []Obj {
	ns := len(a.shards)
	for i := 0; i < ns && len(dst) < n; i++ {
		sh := &a.shards[(prefer+i)%ns]
		sh.mu.Lock()
		for len(dst) < n && len(sh.free) > 0 {
			o := sh.free[len(sh.free)-1]
			sh.free = sh.free[:len(sh.free)-1]
			dst = append(dst, o)
		}
		sh.mu.Unlock()
	}
	return dst
}

// returnBatch gives reserved slots back to their home shards.
func (a *Arena) returnBatch(objs []Obj) {
	if len(objs) == 0 {
		return
	}
	// Group by shard to take each lock once.
	for s := range a.shards {
		sh := &a.shards[s]
		first := true
		for _, o := range objs {
			if uint32(o)&a.smask != uint32(s) {
				continue
			}
			if first {
				sh.mu.Lock()
				first = false
			}
			sh.free = append(sh.free, o)
		}
		if !first {
			sh.mu.Unlock()
		}
	}
}

// release returns a single slot to its shard's free list (sweep only).
func (a *Arena) release(o Obj) {
	a.headers[o].Store(0)
	sh := &a.shards[uint32(o)&a.smask]
	sh.mu.Lock()
	sh.free = append(sh.free, o)
	sh.mu.Unlock()
}

// releaseBatch clears the headers of the given slots and returns them to
// their shards, taking each shard lock at most once. The sweep uses it
// so reclamation costs one lock per shard, not one per object.
func (a *Arena) releaseBatch(objs []Obj) {
	for _, o := range objs {
		a.headers[o].Store(0)
	}
	a.returnBatch(objs)
}

// SetFlagForBenchmark forces o's raw mark flag; benchmarks only.
func (a *Arena) SetFlagForBenchmark(o Obj, flag bool) {
	h := a.headers[o].Load() &^ hdrFlag
	if flag {
		h |= hdrFlag
	}
	a.headers[o].Store(h)
}

// WhitenForBenchmark resets o's mark flag to the unmarked sense (the
// opposite of fM). It exists solely so benchmarks can re-measure the
// marking CAS on the same object; it has no legitimate collector use.
func (a *Arena) WhitenForBenchmark(o Obj, fM bool) {
	h := a.headers[o].Load() &^ hdrFlag
	if !fM {
		h |= hdrFlag
	}
	a.headers[o].Store(h)
}

// LiveCount counts allocated slots (O(n); diagnostics and tests).
func (a *Arena) LiveCount() int {
	n := 0
	for i := range a.headers {
		if a.headers[i].Load()&hdrAlloc != 0 {
			n++
		}
	}
	return n
}

// FreeCount reports the total free-list length across shards.
func (a *Arena) FreeCount() int {
	n := 0
	for s := range a.shards {
		sh := &a.shards[s]
		sh.mu.Lock()
		n += len(sh.free)
		sh.mu.Unlock()
	}
	return n
}

func (a *Arena) String() string {
	return fmt.Sprintf("arena{slots=%d fields=%d shards=%d live=%d}",
		a.nslots, a.nfields, len(a.shards), a.LiveCount())
}
