package gcrt

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Microbenchmarks with direct access to the kernel internals, isolating
// the §2.3 cost structure of the mark operation: the flag-test fast path
// that skips the CAS entirely, the CAS path a race winner pays, and the
// surrounding operations. The E14 pair measures the same two paths
// through Mutator.Store's write barriers.

// setFlag forces o's raw mark flag, so a benchmark can re-measure the
// marking CAS on the same object. Being test code, it cannot reach a
// production path, where a raw flag write breaks the tri-colour
// invariant. It is a casFlag from the flag it reads, so it never loses
// another slot's bits in the header word.
func (a *Arena) setFlag(o Obj, flag bool) {
	a.casFlag(o, a.flag(o), flag)
}

// flag reads the raw mark flag of o.
func (a *Arena) flag(o Obj) bool {
	_, flag := a.header(o)
	return flag
}

func BenchmarkMarkFastPathAlreadyMarked(b *testing.B) {
	rt := New(Options{Slots: 8, Fields: 1, Mutators: 1})
	m := rt.Mutator(0)
	x := m.Root(m.Alloc())
	rt.phase.Store(int32(PhMark))
	rt.fM.Store(true)
	rt.arena.setFlag(x, true) // already marked
	var wl []Obj
	var c counts
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.mark(x, &wl, &c)
	}
	if len(wl) != 0 {
		b.Fatal("fast path won a mark")
	}
}

func BenchmarkMarkFastPathIdlePhase(b *testing.B) {
	rt := New(Options{Slots: 8, Fields: 1, Mutators: 1})
	m := rt.Mutator(0)
	x := m.Root(m.Alloc())
	rt.fM.Store(true) // x unmarked, but phase stays Idle: no CAS
	var wl []Obj
	var c counts
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.mark(x, &wl, &c)
	}
	if len(wl) != 0 {
		b.Fatal("idle-phase mark won")
	}
}

func BenchmarkMarkCASWin(b *testing.B) {
	rt := New(Options{Slots: 8, Fields: 1, Mutators: 1})
	m := rt.Mutator(0)
	x := m.Root(m.Alloc())
	rt.phase.Store(int32(PhMark))
	rt.fM.Store(true)
	var wl []Obj
	var c counts
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.arena.setFlag(x, false) // whiten again
		rt.mark(x, &wl, &c)
	}
	if int64(len(wl)) != int64(b.N) {
		b.Fatalf("wins = %d, want %d", len(wl), b.N)
	}
}

// --- E14 (§2.3): write-barrier cost fast path vs CAS path ---------------

// BenchmarkE14BarrierFastPath reports ns per store whose barrier targets
// are all marked already: the flag-test-only path. With two mutators the
// second stores the same way on its own objects throughout, so the
// difference between the two forms is what the mutators share on that
// path.
func BenchmarkE14BarrierFastPath(b *testing.B) {
	for _, n := range []int{1, 2} {
		b.Run(fmt.Sprintf("mutators=%d", n), func(b *testing.B) {
			rt, muts, cleanup := heldInMarkPhase(b, n)
			defer cleanup()
			a, x := 0, 1 // the root-marking round marked both
			var stop atomic.Bool
			var wg sync.WaitGroup
			for _, m := range muts[1:] {
				wg.Add(1)
				go func(m *Mutator) {
					defer wg.Done()
					for !stop.Load() {
						m.Store(a, 0, x)
					}
				}(m)
			}
			m := muts[0]
			before := rt.Stats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Store(a, 0, x)
			}
			b.StopTimer()
			stop.Store(true)
			wg.Wait()
			after := rt.Stats()
			if after.MarkCAS != before.MarkCAS {
				b.Fatalf("CAS on fast path: %d", after.MarkCAS-before.MarkCAS)
			}
		})
	}
}

func BenchmarkE14BarrierCASPath(b *testing.B) {
	// Freshly unmarked targets force the locked CMPXCHG each time. We
	// re-whiten the object between iterations to isolate the CAS cost.
	rt, muts, cleanup := heldInMarkPhase(b, 1)
	defer cleanup()
	m := muts[0]
	a, x := 0, 1
	obj := m.Root(x)
	fM := rt.FM()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.arena.setFlag(obj, !fM) // the unmarked sense
		m.Store(a, 0, x)           // insertion barrier must CAS-mark x
	}
}

// heldInMarkPhase starts a collection and drives n mutators through the
// root-marking round, leaving the collector blocked on mark-loop
// termination — no mutator serves its get-work round — so that phase ==
// Mark for the duration of the benchmark. Each mutator holds its own a
// and x in roots 0 and 1. Sixteen fields put every object's fields on a
// cache line of their own, and each mutator's TLAB comes from its own
// shard, so two mutators storing share no arena line they write.
func heldInMarkPhase(b *testing.B, n int) (*Runtime, []*Mutator, func()) {
	b.Helper()
	rt := New(Options{Slots: 1024, Fields: 16, Mutators: n})
	muts := make([]*Mutator, n)
	for i := range muts {
		muts[i] = rt.Mutator(i)
		muts[i].Alloc() // a
		muts[i].Alloc() // x
	}
	done := make(chan struct{})
	go func() { rt.Collect(); close(done) }()
	for behind := true; behind; runtime.Gosched() {
		behind = false
		for _, m := range muts {
			if m.Served() < 5 {
				m.SafePoint()
				behind = true
			}
		}
	}
	cleanup := func() {
		for _, m := range muts {
			m.Park()
		}
		<-done
		for _, m := range muts {
			m.Unpark()
		}
	}
	return rt, muts, cleanup
}

func BenchmarkMarkNil(b *testing.B) {
	rt := New(Options{Slots: 8, Fields: 1, Mutators: 1})
	var wl []Obj
	var c counts
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.mark(NilObj, &wl, &c)
	}
}

func BenchmarkAllocRelease(b *testing.B) {
	a := NewArena(64, 2)
	b.ResetTimer()
	var slot []Obj
	for i := 0; i < b.N; i++ {
		slot = a.reserveBatch(slot[:0], 0, 1)
		a.install(slot[0], false)
		slot = a.freeUnmarked(true, slot[:0])
		a.returnBatch(slot)
	}
}

// BenchmarkSweep measures one sweep at the rt-churn shape: 2^20 slots,
// of which the previous cycle's 10,000 allocations are garbage and the
// current cycle's 10,000 survive. Each iteration flips the mark sense and
// allocates the next survivors, so every sweep frees exactly the last
// iteration's objects. Only the sweep is timed: ns/op is per cycle.
func BenchmarkSweep(b *testing.B) {
	const slots, perCycle = 1 << 20, 10_000
	rt := New(Options{Slots: slots, Fields: 1, Mutators: 1})
	a := rt.arena
	var batch []Obj
	var swept time.Duration
	cycle := func() int {
		fM := !rt.fM.Load()
		rt.fM.Store(fM)
		batch = a.reserveBatch(batch[:0], 0, perCycle)
		for _, o := range batch {
			a.install(o, fM) // allocated black: survives this sweep
		}
		start := time.Now()
		freed := rt.sweep()
		swept += time.Since(start)
		return freed
	}
	cycle() // the first sweep has no garbage yet
	swept = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if freed := cycle(); freed != perCycle {
			b.Fatalf("sweep freed %d, want %d", freed, perCycle)
		}
	}
	ns := float64(swept.Nanoseconds()) / float64(b.N)
	b.ReportMetric(ns, "ns/op")
	b.ReportMetric(ns/slots, "ns/slot")
}

func BenchmarkFieldLoadStore(b *testing.B) {
	a := NewArena(8, 2)
	objs := a.reserveBatch(nil, 0, 2)
	o, p := objs[0], objs[1]
	a.install(o, false)
	a.install(p, false)
	b.Run("load", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = a.LoadField(o, 0)
		}
	})
	b.Run("store", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a.StoreField(o, 0, p)
		}
	})
}

// --- E2c: rescanning variant round inflation -----------------------------

func BenchmarkE2cRescanRounds(b *testing.B) {
	// Quiesced comparison: with parked mutators both variants trace the
	// same heap; the rescanning variant still pays one extra (empty)
	// roots round per cycle, and under adversarial mutators its rounds
	// grow with the hidden chain (see TestRescanUnboundedRounds).
	b.Run("snapshot", func(b *testing.B) {
		rt := New(Options{Slots: 512, Fields: 1, Mutators: 1})
		seedList(rt, 256)
		rt.Mutator(0).Park()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rt.Collect()
		}
	})
	b.Run("rescan", func(b *testing.B) {
		rt := New(Options{Slots: 512, Fields: 1, Mutators: 1, NoDeletionBarrier: true})
		seedList(rt, 256)
		rt.Mutator(0).Park()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			collectRescan(rt)
		}
		b.StopTimer()
		b.ReportMetric(float64(rt.Stats().RootsRounds)/float64(b.N), "rounds/cycle")
	})
}

func seedList(rt *Runtime, n int) {
	m := rt.Mutator(0)
	head := m.Alloc()
	prev := head
	for i := 1; i < n; i++ {
		x := m.Alloc()
		m.Store(prev, 0, x)
		prev = x
	}
	for i := m.NumRoots() - 1; i > head; i-- {
		m.Discard(i)
	}
}
