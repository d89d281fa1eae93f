package gcrt

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Phase is the collector's control state (paper Figure 2).
type Phase int32

const (
	PhIdle Phase = iota
	PhInit
	PhMark
	PhSweep
)

func (p Phase) String() string {
	switch p {
	case PhIdle:
		return "Idle"
	case PhInit:
		return "Init"
	case PhMark:
		return "Mark"
	case PhSweep:
		return "Sweep"
	}
	return fmt.Sprintf("Phase(%d)", int32(p))
}

// HSType is the handshake type (§2.2). HSValidate is not part of the
// paper's protocol: it is the online invariant oracle's audit round
// (oracle.go), a no-op for the collector state machine.
type HSType int32

const (
	HSNoop HSType = iota
	HSGetRoots
	HSGetWork
	HSValidate
)

// Options configures the runtime kernel, including the ablation switches
// used by the necessity experiments — never disable barriers in real use.
type Options struct {
	// Slots and Fields size the arena.
	Slots, Fields int
	// Mutators is the number of registered mutator threads.
	Mutators int

	// NoDeletionBarrier and NoInsertionBarrier reproduce the E11
	// ablations at runtime scale: expect lost objects (arena faults).
	NoDeletionBarrier  bool
	NoInsertionBarrier bool
	// AllocWhite allocates with the unmarked sense in every phase (E11).
	AllocWhite bool

	// MarkWorkers sets the number of tracing workers in the mark loop
	// (0 or 1 = single-threaded, the configuration the paper verifies;
	// >1 exercises the multi-threaded-collector extension sketched in
	// §1 over work-stealing deques). Marking is CAS-idempotent, so
	// workers race safely.
	MarkWorkers int

	// ArenaShards sets the free-list shard count (rounded up to a power
	// of two; 0 derives it from GOMAXPROCS, 1 reproduces the seed's
	// single global free list).
	ArenaShards int
	// TLABSize sets the per-mutator allocation-cache batch reserved per
	// refill (0 picks a default of 64). See tlab.go.
	TLABSize int
	// BarrierBuffer sets the batched write-barrier buffer capacity
	// (0 picks a default of 64; negative disables buffering so barrier
	// targets are marked immediately, the paper figures' literal
	// instruction order). See barrier.go.
	BarrierBuffer int
}

// Runtime is the collector kernel: shared control state, the arena, the
// handshake mailboxes, and the collector's work queue.
type Runtime struct {
	opt   Options // gcrt:guard immutable
	arena *Arena  // gcrt:guard immutable

	// Control variables; shared with mutators and read racily by design
	// (§2.4): the write barriers tolerate stale values.
	fM    atomic.Bool  // gcrt:guard atomic
	fA    atomic.Bool  // gcrt:guard atomic
	phase atomic.Int32 // gcrt:guard atomic

	// Handshake state. hsRound is touched only by the collector
	// goroutine; mutators see rounds through their own mailboxes.
	hsType  atomic.Int32 // gcrt:guard atomic
	hsRound int64        // gcrt:guard owner(collector)
	muts    []*Mutator   // gcrt:guard immutable

	// stw is the world-stop protocol state used by the stop-the-world
	// baseline (stw.go).
	stw atomic.Int32 // gcrt:guard atomic

	// The collector's work queue; mutators transfer their private
	// work-lists here when completing get-roots/get-work handshakes.
	// Schism transfers work-lists with wait-free list splicing; a mutex
	// is contention-equivalent at handshake granularity and keeps the
	// kernel readable. (Tracing itself runs over work-stealing deques,
	// parallel.go; this queue only changes hands at handshakes.)
	wqMu sync.Mutex // gcrt:guard atomic
	wq   []Obj      // gcrt:guard by(wqMu)

	// oracle, when non-nil, runs sampled online invariant checks
	// against the live arena (oracle.go).
	// gcrt:guard immutable
	oracle *Oracle

	// sweepScratch carries freed slots between sweep and batched
	// release; collector goroutine only.
	// gcrt:guard owner(collector)
	sweepScratch []Obj

	stats Stats // gcrt:guard immutable
}

// New creates a runtime and its mutator handles.
func New(opt Options) *Runtime {
	if opt.Slots <= 0 || opt.Fields <= 0 || opt.Mutators <= 0 {
		panic("gcrt: Slots, Fields and Mutators must be positive")
	}
	rt := &Runtime{
		opt:   opt,
		arena: NewArenaSharded(opt.Slots, opt.Fields, opt.ArenaShards),
	}
	for i := 0; i < opt.Mutators; i++ {
		m := &Mutator{rt: rt, id: i}
		m.bcap = rt.barrierCap()
		rt.muts = append(rt.muts, m)
	}
	return rt
}

// Arena exposes the heap arena (diagnostics and tests).
func (rt *Runtime) Arena() *Arena { return rt.arena }

// Mutator returns the i-th mutator handle. Each handle must be used from
// a single goroutine.
func (rt *Runtime) Mutator(i int) *Mutator { return rt.muts[i] }

// NumMutators reports the number of registered mutators.
func (rt *Runtime) NumMutators() int { return len(rt.muts) }

// Stats returns a snapshot of the runtime counters.
func (rt *Runtime) Stats() StatsSnapshot { return rt.stats.snapshot() }

// Phase reads the collector phase (racy, as mutators do).
func (rt *Runtime) Phase() Phase { return Phase(rt.phase.Load()) }

// FM reads the current mark sense.
func (rt *Runtime) FM() bool { return rt.fM.Load() }

// transfer splices a private work-list into the collector's queue.
func (rt *Runtime) transfer(wl []Obj) {
	if len(wl) == 0 {
		return
	}
	rt.wqMu.Lock()
	rt.wq = append(rt.wq, wl...)
	rt.wqMu.Unlock()
}

// drainQueue removes and returns the whole work queue.
func (rt *Runtime) drainQueue() []Obj {
	rt.wqMu.Lock()
	wq := rt.wq
	rt.wq = nil
	rt.wqMu.Unlock()
	return wq
}

// handshake performs one ragged round of soft handshakes (Figure 4): set
// the type, publish a new round number to every mutator, and wait until
// all have acknowledged at a GC-safe point. The atomic stores/loads
// provide the paper's fence discipline (store fence at initiation, load
// fence at collection).
//
// The wait spins on each mutator's acknowledgement counter — a read of
// a line the mutator writes once per round — and takes the park lock
// only when the mutator actually looks parked, so running mutators are
// never serialized against the collector's polling (the seed re-locked
// parkMu on every spin iteration, measurable contention at high mutator
// counts).
func (rt *Runtime) handshake(t HSType) {
	start := time.Now()
	rt.hsRound++
	round := rt.hsRound
	rt.hsType.Store(int32(t))
	for _, m := range rt.muts {
		m.hsWanted.Store(round)
	}
	for _, m := range rt.muts {
		spin := 0
		for m.hsAcked.Load() < round {
			if m.parked.Load() {
				// A parked mutator sits at a permanent safe point; the
				// collector performs its handshake work on its behalf
				// (Schism treats blocked threads the same way). The
				// park lock excludes Unpark while the collector
				// touches the mutator's roots, buffer and work-list.
				m.parkMu.Lock()
				if m.parked.Load() && m.hsAcked.Load() < round {
					rt.collectorSideHandshake(m, t)
					m.hsAcked.Store(round)
					m.served.Add(1)
				}
				m.parkMu.Unlock()
			}
			spin++
			if spin%64 == 0 {
				time.Sleep(10 * time.Microsecond)
			} else {
				runtime.Gosched()
			}
		}
	}
	rt.stats.handshakes.Add(1)
	rt.stats.recordHandshake(time.Since(start))
	if t == HSGetRoots {
		rt.stats.rootsRounds.Add(1)
	}
}

// collectorSideHandshake performs m's handshake work while m is parked.
// The caller holds m.parkMu, so Unpark (and hence any mutator activity)
// is excluded until the work completes. Like the mutator-side service,
// it starts by draining the barrier buffer.
func (rt *Runtime) collectorSideHandshake(m *Mutator, t HSType) {
	m.flushBarriers()
	switch t {
	case HSGetRoots:
		for _, r := range m.roots {
			rt.mark(r, &m.wl)
		}
		rt.transfer(m.wl)
		m.wl = m.wl[:0]
	case HSGetWork:
		rt.transfer(m.wl)
		m.wl = m.wl[:0]
	case HSValidate:
		if rt.oracle != nil {
			rt.oracle.validateMutator(m)
		}
	}
}

// mark is Figure 5: test the flag against the expected (unmarked) sense,
// and only then attempt the CAS; the winner takes the object grey by
// appending it to the work-list wl.
func (rt *Runtime) mark(ref Obj, wl *[]Obj) {
	if ref == NilObj {
		return
	}
	fM := rt.fM.Load()
	expected := !fM
	if rt.arena.Allocated(ref) && rt.arena.flag(ref) == expected {
		if Phase(rt.phase.Load()) != PhIdle {
			rt.stats.markCAS.Add(1)
			if rt.arena.casFlag(ref, expected, fM) {
				*wl = append(*wl, ref) // we win: ref is grey
				rt.stats.marked.Add(1)
			}
		}
	} else {
		rt.stats.markFast.Add(1)
	}
}

// sweep releases every object still at the unmarked sense, batching the
// free-list traffic per shard, and returns the number freed.
func (rt *Runtime) sweep() int {
	fM := rt.fM.Load()
	freed := rt.sweepScratch[:0]
	for i := 0; i < rt.arena.NumSlots(); i++ {
		o := Obj(i)
		h := rt.arena.headers[o].Load()
		if h&hdrAlloc != 0 && (h&hdrFlag != 0) != fM {
			freed = append(freed, o)
		}
	}
	rt.arena.releaseBatch(freed)
	rt.sweepScratch = freed[:0]
	return len(freed)
}

// Collect runs one full collection cycle (Figure 2) and returns the
// number of objects freed. It must be called from a single collector
// goroutine.
func (rt *Runtime) Collect() int {
	cycleStart := time.Now()

	// Lines 3–4: everyone knows the collector is idle; heap is black.
	rt.handshake(HSNoop)
	// Line 5: flip the sense of the marks; heap becomes white.
	rt.fM.Store(!rt.fM.Load())
	rt.handshake(HSNoop)
	// Line 8: enable write barriers.
	rt.phase.Store(int32(PhInit))
	rt.handshake(HSNoop)
	// Lines 11–12: marking begins; allocate black.
	rt.phase.Store(int32(PhMark))
	if !rt.opt.AllocWhite {
		rt.fA.Store(rt.fM.Load())
	}
	rt.handshake(HSNoop)

	// Lines 15–20: snapshot the mutator roots.
	rt.handshake(HSGetRoots)

	// Lines 24–34: trace until no grey references remain anywhere; the
	// tracing itself runs on Options.MarkWorkers workers (parallel.go).
	for {
		if rt.traceAll(rt.opt.MarkWorkers) == 0 {
			break
		}
		// Lines 31–34: poll the mutators for barrier-shaded greys.
		rt.handshake(HSGetWork)
	}

	// Lines 35–45: sweep all unmarked objects.
	rt.phase.Store(int32(PhSweep))
	freed := rt.sweep()
	// Line 46.
	rt.phase.Store(int32(PhIdle))

	rt.stats.cycles.Add(1)
	rt.stats.freed.Add(int64(freed))
	rt.stats.cycleNanos.Add(time.Since(cycleStart).Nanoseconds())
	return freed
}
