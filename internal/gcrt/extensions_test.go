package gcrt

import (
	"math/rand"
	"sync"
	"testing"
)

// --- Parallel marking (§1 extension) ------------------------------------

func TestParallelMarkMatchesSerial(t *testing.T) {
	build := func(workers int) (int, int) {
		rt := New(Options{Slots: 512, Fields: 2, Mutators: 1, MarkWorkers: workers})
		m := rt.Mutator(0)
		// A binary tree of depth 7 plus garbage.
		rng := rand.New(rand.NewSource(42))
		root := m.Alloc()
		nodes := []int{root}
		for len(nodes) < 200 {
			parent := nodes[rng.Intn(len(nodes))]
			child := m.Alloc()
			m.Store(parent, rng.Intn(2), child)
			nodes = append(nodes, child)
		}
		for i := m.NumRoots() - 1; i > root; i-- {
			m.Discard(i)
		}
		for k := 0; k < 50; k++ {
			g := m.Alloc()
			m.Discard(g)
		}
		m.Park()
		freed := rt.Collect()
		return freed, rt.Arena().LiveCount()
	}
	fs, ls := build(1)
	for _, w := range []int{2, 4} {
		fp, lp := build(w)
		if fp != fs || lp != ls {
			t.Fatalf("workers=%d: freed=%d live=%d, serial freed=%d live=%d", w, fp, lp, fs, ls)
		}
	}
}

func TestParallelMarkEmptyQueue(t *testing.T) {
	rt := New(Options{Slots: 8, Fields: 1, Mutators: 1, MarkWorkers: 4})
	rt.Mutator(0).Park()
	rt.Collect() // no roots: workers must terminate, not hang
	if rt.Stats().Cycles != 1 {
		t.Fatal("cycle did not complete")
	}
}

func TestParallelMarkConcurrentWithMutators(t *testing.T) {
	const nMut = 2
	rt := New(Options{Slots: 256, Fields: 2, Mutators: nMut, MarkWorkers: 4})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < nMut; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			m := rt.Mutator(id)
			rng := rand.New(rand.NewSource(int64(id) + 5))
			m.Alloc()
			for {
				select {
				case <-stop:
					m.Park()
					return
				default:
				}
				n := m.NumRoots()
				switch {
				case n < 4:
					m.Alloc()
				case n > 12:
					m.Discard(rng.Intn(n))
				default:
					m.Store(rng.Intn(n), rng.Intn(2), rng.Intn(n))
				}
				m.SafePoint()
			}
		}(i)
	}
	for c := 0; c < 10; c++ {
		rt.Collect()
	}
	close(stop)
	wg.Wait()
	if f := rt.Arena().Faults.Load(); f != 0 {
		t.Fatalf("%d faults with parallel marking", f)
	}
}
