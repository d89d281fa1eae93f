package gcrt

import (
	"testing"
)

// Microbenchmarks with direct access to the kernel internals, isolating
// the §2.3 cost structure of the mark operation: the flag-test fast path
// that skips the CAS entirely, the CAS path a race winner pays, and the
// surrounding operations. The root-level bench_test.go measures the same
// effects through the public API.

func BenchmarkMarkFastPathAlreadyMarked(b *testing.B) {
	rt := New(Options{Slots: 8, Fields: 1, Mutators: 1})
	m := rt.Mutator(0)
	x := m.Root(m.Alloc())
	rt.phase.Store(int32(PhMark))
	rt.fM.Store(true)
	rt.arena.SetFlagForBenchmark(x, true) // already marked
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
		rt.arena.SetFlagForBenchmark(x, false) // whiten again
		rt.mark(x, &wl)
	}
	if int64(len(wl)) != int64(b.N) {
		b.Fatalf("wins = %d, want %d", len(wl), b.N)
	}
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
