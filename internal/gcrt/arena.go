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
// sync/atomic operations. On amd64 those compile to MOV for loads,
// XCHG for stores and locked CMPXCHG for the marking CAS. XCHG is a
// locked instruction and a full barrier (go1.24,
// internal/runtime/atomic/atomic_amd64.s), so no store is ever
// buffered: the runtime runs sequentially consistent, which is stronger
// than the x86-TSO the paper models. The store-buffer interleavings the
// paper's proof pays for are explored by the model (packages gcmodel and
// tso), not exercised here.
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
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

// Obj is an object identifier: a slot index in the arena, or NilObj.
type Obj int32

// NilObj is the NULL reference.
const NilObj Obj = -1

// Header bits. Each slot's header is two bits of a packed header word,
// 32 slots to a word: bit 2k is slot k's allocated bit and bit 2k+1 its
// mark flag. Every transition of a slot's header is one atomic
// read-modify-write of its word, so writers of different slots in the
// same word never lose each other's bits.
const (
	hdrAlloc uint64 = 1 << 0 // the slot holds a live object
	hdrFlag  uint64 = 1 << 1 // the mark flag; "marked" iff equal to f_M

	slotsPerWord = 32
	// allocBits has every slot's allocated bit set.
	allocBits uint64 = 0x5555555555555555

	// blockShift sizes a free-list block: 256 slots, whose header words
	// fill one 64-byte cache line. Whole blocks belong to one shard.
	blockShift = 8
)

// unmarked returns the allocated bits (bit 2k) of the slots in header
// word h that are allocated with a flag other than fM.
func unmarked(h uint64, fM bool) uint64 {
	flags := h >> 1 & allocBits
	if fM {
		return h & allocBits &^ flags
	}
	return h & allocBits & flags
}

// freeShard is one shard of the free list. Padding keeps two shards'
// locks off the same cache line under contention.
type freeShard struct {
	mu   sync.Mutex // gcrt:guard atomic
	free []Obj      // gcrt:guard by(mu)
	_    [32]byte
}

// Arena is the simulated heap: a fixed pool of object slots, each with a
// two-bit header (allocated bit + mark flag) packed into a shared header
// word, and a fixed number of reference fields. Free slots live on
// sharded free lists: slot i belongs to block i/256, and block b to
// shard b mod nshards, so concurrent allocators fill different header
// and field lines and contend on different locks.
type Arena struct {
	nslots  int // gcrt:guard immutable
	nfields int // gcrt:guard immutable
	// headers holds slot i's header at bits 2(i%32) and 2(i%32)+1 of
	// word i/32.
	// gcrt:guard immutable
	headers []atomic.Uint64
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
// fields each, with the free list sharded by GOMAXPROCS (rounded up to a
// power of two, at most 64).
func NewArena(nslots, nfields int) *Arena {
	nshards := 1
	for nshards < runtime.GOMAXPROCS(0) && nshards < 64 {
		nshards <<= 1
	}
	// High slots first within each shard, so each shard hands out its
	// lowest slot first.
	free := make([][]Obj, nshards)
	for s := range free {
		free[s] = make([]Obj, 0, nslots/nshards+1<<blockShift)
	}
	for i := nslots - 1; i >= 0; i-- {
		s := (i >> blockShift) & (nshards - 1)
		free[s] = append(free[s], Obj(i))
	}
	shards := make([]freeShard, nshards)
	for s := range shards {
		shards[s] = freeShard{free: free[s]}
	}
	return &Arena{
		nslots:  nslots,
		nfields: nfields,
		headers: make([]atomic.Uint64, (nslots+slotsPerWord-1)/slotsPerWord),
		fields:  make([]atomic.Int32, nslots*nfields),
		shards:  shards,
		smask:   uint32(nshards - 1),
	}
}

// NumSlots reports the arena capacity.
func (a *Arena) NumSlots() int { return a.nslots }

// NumFields reports the per-object field count.
func (a *Arena) NumFields() int { return a.nfields }

// NumShards reports the free-list shard count.
func (a *Arena) NumShards() int { return len(a.shards) }

// shardOf is the home shard of slot o: the shard of its block.
func (a *Arena) shardOf(o Obj) uint32 { return uint32(o) >> blockShift & a.smask }

// word returns the header word holding o and the shift of o's two bits.
func (a *Arena) word(o Obj) (*atomic.Uint64, uint) {
	return &a.headers[uint32(o)/slotsPerWord], uint(uint32(o)%slotsPerWord) * 2
}

// hdrBits returns o's two header bits from one load of its word.
func (a *Arena) hdrBits(o Obj) uint64 {
	return a.headers[uint32(o)/slotsPerWord].Load() >> (uint32(o) % slotsPerWord * 2)
}

// header reads o's allocated bit and mark flag with one load.
func (a *Arena) header(o Obj) (alloc, flag bool) {
	h := a.hdrBits(o)
	return h&hdrAlloc != 0, h&hdrFlag != 0
}

// Allocated reports whether the slot holds a live object.
func (a *Arena) Allocated(o Obj) bool {
	return o != NilObj && a.hdrBits(o)&hdrAlloc != 0
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

// casFlag attempts to set the mark flag of o from old to new, preserving
// the allocated bit: the single locked CMPXCHG of Figure 5, on o's header
// word. It retries only when another slot's bits in the word changed; it
// fails if another thread changed o's flag first.
func (a *Arena) casFlag(o Obj, old, new bool) bool {
	w, sh := a.word(o)
	for {
		h := w.Load()
		if h>>sh&hdrAlloc == 0 {
			a.fault()
			return false
		}
		if (h>>sh&hdrFlag != 0) != old {
			return false // some other thread won the race
		}
		nh := h &^ (hdrFlag << sh)
		if new {
			nh |= hdrFlag << sh
		}
		if w.CompareAndSwap(h, nh) {
			return true
		}
	}
}

// install writes a live header with NULL fields onto a reserved slot.
// The CAS that sets the header bits publishes the object; on x86-TSO the
// initializing field stores drain before any later store that could
// publish the reference, which is why no fence is needed — the paper's
// §4 argument.
func (a *Arena) install(o Obj, flag bool) {
	base := int(o) * a.nfields
	for i := 0; i < a.nfields; i++ {
		a.fields[base+i].Store(int32(NilObj))
	}
	set := hdrAlloc
	if flag {
		set |= hdrFlag
	}
	w, sh := a.word(o)
	for {
		h := w.Load()
		if w.CompareAndSwap(h, h|set<<sh) {
			return
		}
	}
}

// freeUnmarked clears the header of every slot that is allocated with a
// flag other than fM, one CAS per header word holding such a slot, and
// appends the freed slots to dst in slot order. If a word's CAS fails — a
// mutator installed or a marker flagged another of its slots — it
// reloads that word and recomputes.
func (a *Arena) freeUnmarked(fM bool, dst []Obj) []Obj {
	for wi := range a.headers {
		w := &a.headers[wi]
		for {
			h := w.Load()
			dead := unmarked(h, fM)
			if dead == 0 {
				break
			}
			if w.CompareAndSwap(h, h&^(dead|dead<<1)) {
				for ; dead != 0; dead &= dead - 1 {
					dst = append(dst, Obj(wi*slotsPerWord+bits.TrailingZeros64(dead)/2))
				}
				break
			}
		}
	}
	return dst
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
			if a.shardOf(o) != uint32(s) {
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

// LiveCount counts allocated slots (O(n); diagnostics and tests).
func (a *Arena) LiveCount() int {
	n := 0
	for i := range a.headers {
		n += bits.OnesCount64(a.headers[i].Load() & allocBits)
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
