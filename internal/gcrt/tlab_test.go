package gcrt

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TLAB tests: batch reservation, exhaustion across competing caches,
// release-on-park, and the invariant that reserved-but-unallocated
// slots stay invisible to LiveCount and the sweep. Run with -race.

func TestTLABRefillBatches(t *testing.T) {
	rt := New(Options{Slots: 256, Fields: 1, Mutators: 1, TLABSize: 16})
	m := rt.Mutator(0)

	if m.TLABSize() != 0 {
		t.Fatalf("fresh mutator holds %d reserved slots", m.TLABSize())
	}
	m.Alloc()
	if got := m.TLABSize(); got != 15 {
		t.Fatalf("after first alloc TLAB holds %d slots, want 15", got)
	}
	s := rt.Stats()
	if s.TLABRefills != 1 {
		t.Fatalf("refills = %d, want 1", s.TLABRefills)
	}
	// The next 15 allocations are lock-free from the cache: no refill.
	for i := 0; i < 15; i++ {
		m.Alloc()
	}
	if got := rt.Stats().TLABRefills; got != 1 {
		t.Fatalf("refills after draining cache = %d, want 1", got)
	}
	m.Alloc() // 17th allocation triggers the second batch
	if got := rt.Stats().TLABRefills; got != 2 {
		t.Fatalf("refills = %d, want 2", got)
	}
}

func TestTLABReservedSlotsInvisibleToSweep(t *testing.T) {
	rt := New(Options{Slots: 64, Fields: 1, Mutators: 1, TLABSize: 32})
	m := rt.Mutator(0)
	m.Alloc() // reserves 32, allocates 1

	if got := rt.Arena().LiveCount(); got != 1 {
		t.Fatalf("LiveCount = %d, want 1 (reserved slots must not count)", got)
	}
	// A collection must not free (or corrupt) the 31 reserved slots:
	// they have clear headers, so the sweep skips them, and afterwards
	// they are still allocatable.
	collectWithMutators(rt, m)
	for i := 0; i < 31; i++ {
		if m.Alloc() < 0 {
			t.Fatalf("reserved slot %d lost after collection", i)
		}
	}
}

func TestTLABExhaustionAndRecovery(t *testing.T) {
	// Two mutators, arena smaller than two full TLABs: reservation must
	// spill across shards and exhaust cleanly, and ReturnTLAB must make
	// the hoarded slots allocatable by the other mutator.
	rt := New(Options{Slots: 48, Fields: 1, Mutators: 2, TLABSize: 32})
	m0, m1 := rt.Mutator(0), rt.Mutator(1)

	m0.Alloc() // m0 reserves 32
	m1.Alloc() // m1 reserves the remaining 16

	// Drain everything: 48 slots total, 2 already allocated.
	allocated := 2
	for m0.Alloc() >= 0 {
		allocated++
	}
	for m1.Alloc() >= 0 {
		allocated++
	}
	if allocated != 48 {
		t.Fatalf("allocated %d slots from a 48-slot arena", allocated)
	}
	if m0.Alloc() >= 0 || m1.Alloc() >= 0 {
		t.Fatal("allocation succeeded on an exhausted arena")
	}

	// Free everything through a collection, then let m0 hoard a fresh
	// TLAB and verify m1 can still allocate after m0 parks (Park returns
	// the TLAB).
	m0.DiscardAll()
	m1.DiscardAll()
	collectWithMutators(rt, m0, m1)
	collectWithMutators(rt, m0, m1) // floating garbage dies in cycle 2
	if got := rt.Arena().LiveCount(); got != 0 {
		t.Fatalf("LiveCount after full drop = %d, want 0", got)
	}

	m0.Alloc()
	if m0.TLABSize() == 0 {
		t.Fatal("m0 holds no reservation after alloc")
	}
	m0.Park()
	if m0.TLABSize() != 0 {
		t.Fatalf("Park left %d reserved slots in the TLAB", m0.TLABSize())
	}
	got := 0
	for m1.Alloc() >= 0 {
		got++
	}
	if got < 40 { // 48 - m0's one live object - m1's prior small remainder
		t.Fatalf("m1 allocated only %d slots after m0 parked", got)
	}
	m0.Unpark()
}

func TestTLABConcurrentAllocationDisjoint(t *testing.T) {
	for _, procs := range []int{2, 8} {
		procs := procs
		t.Run(formatProcs(procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))

			const nmut = 8
			const perMut = 100
			rt := New(Options{Slots: nmut * perMut * 2, Fields: 1, Mutators: nmut, TLABSize: 16})

			var mu sync.Mutex
			seen := make(map[Obj]int)
			var wg sync.WaitGroup
			for i := 0; i < nmut; i++ {
				m := rt.Mutator(i)
				wg.Add(1)
				go func() {
					defer wg.Done()
					local := make([]Obj, 0, perMut)
					for j := 0; j < perMut; j++ {
						ri := m.Alloc()
						if ri < 0 {
							t.Error("allocation failed with free space available")
							return
						}
						local = append(local, m.Root(ri))
					}
					mu.Lock()
					for _, o := range local {
						seen[o]++
					}
					mu.Unlock()
				}()
			}
			wg.Wait()
			if len(seen) != nmut*perMut {
				t.Fatalf("%d distinct objects for %d allocations", len(seen), nmut*perMut)
			}
			for o, n := range seen {
				if n != 1 {
					t.Fatalf("slot %d handed out %d times", o, n)
				}
			}
		})
	}
}

// collectWithMutators runs one collection while each given mutator spins
// at safe points from its own goroutine, so handshakes complete.
func collectWithMutators(rt *Runtime, muts ...*Mutator) {
	var stop atomic.Bool
	var wg sync.WaitGroup
	for _, m := range muts {
		m := m
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				m.SafePoint()
				runtime.Gosched()
			}
		}()
	}
	rt.Collect()
	stop.Store(true)
	wg.Wait()
}
