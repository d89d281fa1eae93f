package gcrt_test

import (
	"fmt"

	"repro/internal/gcrt"
)

// A mutator builds a five-node list in the arena, severs its tail, and
// the collector reclaims the tail on the fly. The deletion barrier inside
// Store keeps the cut safe even while the collector is tracing.
func ExampleNew() {
	rt := gcrt.New(gcrt.Options{Slots: 128, Fields: 1, Mutators: 1})
	m := rt.Mutator(0)

	// n0 → n1 → … → n4. Alloc pushes each new object onto the mutator's
	// roots and returns its root index.
	head := m.Alloc()
	prev := head
	for i := 1; i < 5; i++ {
		n := m.Alloc()
		m.Store(prev, 0, n) // prev.f ← n, write barriers included
		prev = n
	}
	// Drop every root but the head, highest index first because Discard
	// swap-removes: only the list keeps the tail alive now.
	for i := m.NumRoots() - 1; i > head; i-- {
		m.Discard(i)
	}
	fmt.Println("built, live", rt.Arena().LiveCount())

	// Cut after n2, then drop the walk's temporary roots: n3 and n4 are
	// garbage.
	n1 := m.Load(head, 0)
	n2 := m.Load(n1, 0)
	m.Store(n2, 0, -1)
	m.Discard(n2)
	m.Discard(n1)

	// A parked mutator is a permanent safe point, which keeps this example
	// sequential; package workload drives concurrent mutators.
	m.Park()
	freed := rt.Collect()
	freed += rt.Collect() // floating garbage is gone by the second cycle
	m.Unpark()
	fmt.Printf("freed %d, live %d\n", freed, rt.Arena().LiveCount())

	// The retained prefix is intact: n0 → n1 → n2, then nil.
	a := m.Load(head, 0)
	b := m.Load(a, 0)
	fmt.Println("prefix intact:", a != -1 && b != -1 && m.Load(b, 0) == -1)
	// Output:
	// built, live 5
	// freed 2, live 3
	// prefix intact: true
}
