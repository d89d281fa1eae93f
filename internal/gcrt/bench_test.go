package gcrt

import (
	"testing"
)

// Microbenchmarks with direct access to the kernel internals, isolating
// the §2.3 cost structure of the mark operation: the flag-test fast path
// that skips the CAS entirely, the CAS path a race winner pays, and the
// surrounding operations. The E14 pair measures the same two paths
// through Mutator.Store's write barriers.

// setFlag forces o's raw mark flag, so a benchmark can re-measure the
// marking CAS on the same object. Being test code, it cannot reach a
// production path, where a raw flag write breaks the tri-colour
// invariant.
func (a *Arena) setFlag(o Obj, flag bool) {
	h := a.headers[o].Load() &^ hdrFlag
	if flag {
		h |= hdrFlag
	}
	a.headers[o].Store(h)
}

func BenchmarkMarkFastPathAlreadyMarked(b *testing.B) {
	rt := New(Options{Slots: 8, Fields: 1, Mutators: 1})
	m := rt.Mutator(0)
	x := m.Root(m.Alloc())
	rt.phase.Store(int32(PhMark))
	rt.fM.Store(true)
	rt.arena.setFlag(x, true) // already marked
	var wl []Obj
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.mark(x, &wl)
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.mark(x, &wl)
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.arena.setFlag(x, false) // whiten again
		rt.mark(x, &wl)
	}
	if int64(len(wl)) != int64(b.N) {
		b.Fatalf("wins = %d, want %d", len(wl), b.N)
	}
}

// --- E14 (§2.3): write-barrier cost fast path vs CAS path ---------------

func BenchmarkE14BarrierFastPath(b *testing.B) {
	// During marking, stores whose targets are already marked take the
	// flag-test-only path. Hold the collector mid-mark-loop by never
	// serving its get-work handshake from this (unparked) mutator.
	rt, m, cleanup := heldInMarkPhase(b)
	defer cleanup()
	a, x := 0, 1
	m.Store(a, 0, x) // first store CAS-marks x and a's old value
	before := rt.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Store(a, 0, x) // all targets marked: fast path only
	}
	b.StopTimer()
	after := rt.Stats()
	if after.MarkCAS != before.MarkCAS {
		b.Fatalf("CAS on fast path: %d", after.MarkCAS-before.MarkCAS)
	}
}

func BenchmarkE14BarrierCASPath(b *testing.B) {
	// Freshly unmarked targets force the locked CMPXCHG each time. We
	// re-whiten the object between iterations to isolate the CAS cost.
	rt, m, cleanup := heldInMarkPhase(b)
	defer cleanup()
	a, x := 0, 1
	obj := m.Root(x)
	fM := rt.FM()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.arena.setFlag(obj, !fM) // the unmarked sense
		m.Store(a, 0, x)           // insertion barrier must CAS-mark x
	}
}

// heldInMarkPhase starts a collection and drives the mutator through the
// root-marking round, leaving the collector blocked on mark-loop
// termination so that phase == Mark for the duration of the benchmark.
func heldInMarkPhase(b *testing.B) (*Runtime, *Mutator, func()) {
	b.Helper()
	rt := New(Options{Slots: 64, Fields: 1, Mutators: 1})
	m := rt.Mutator(0)
	m.Alloc() // a
	m.Alloc() // x
	done := make(chan struct{})
	go func() { rt.Collect(); close(done) }()
	m.AwaitHandshakes(5)
	cleanup := func() {
		m.Park()
		<-done
		m.Unpark()
	}
	return rt, m, cleanup
}

func BenchmarkMarkNil(b *testing.B) {
	rt := New(Options{Slots: 8, Fields: 1, Mutators: 1})
	var wl []Obj
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.mark(NilObj, &wl)
	}
}

func BenchmarkAllocRelease(b *testing.B) {
	a := NewArena(64, 2)
	b.ResetTimer()
	var slot []Obj
	for i := 0; i < b.N; i++ {
		slot = a.reserveBatch(slot[:0], 0, 1)
		a.install(slot[0], false)
		a.release(slot[0])
	}
}

func BenchmarkSweepEmptyHeap(b *testing.B) {
	rt := New(Options{Slots: 4096, Fields: 1, Mutators: 1})
	rt.Mutator(0).Park()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Collect()
	}
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
