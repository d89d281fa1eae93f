// Quickstart: the executable collector kernel in five minutes.
//
// A mutator goroutine builds and mutates a linked list inside the arena
// while the collector runs full on-the-fly mark-sweep cycles — no
// stop-the-world pause ever happens; the mutator only ever cooperates at
// its own safe points.
//
// Run:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"repro/internal/gcrt"
)

func main() {
	rt := gcrt.New(gcrt.Options{
		Slots:    128, // arena capacity (objects)
		Fields:   1,   // reference fields per object
		Mutators: 1,
	})
	m := rt.Mutator(0)

	// Build a five-node list: n0 → n1 → … → n4. Alloc pushes each new
	// object onto the mutator's root set and returns its root index.
	head := m.Alloc()
	prev := head
	for i := 1; i < 5; i++ {
		n := m.Alloc()
		m.Store(prev, 0, n) // prev.f ← n, write barriers included
		prev = n
	}
	// Drop every temporary root except the head (highest index first,
	// because Discard swap-removes): only the list structure keeps the
	// tail nodes alive now.
	for i := m.NumRoots() - 1; i > head; i-- {
		m.Discard(i)
	}
	fmt.Printf("built a 5-node list; arena: %v\n", rt.Arena())

	// Sever the tail: nodes n3, n4 become garbage. The deletion barrier
	// inside Store keeps this safe even while the collector is tracing.
	n1 := m.Load(head, 0)
	n2 := m.Load(n1, 0)
	m.Store(n2, 0, -1) // n2.f ← NULL
	m.Discard(n2)      // drop the walk's temporary roots again
	m.Discard(n1)
	fmt.Printf("severed after n2; live before GC: %d\n", rt.Arena().LiveCount())

	// Collect concurrently. The mutator parks (a permanent safe point) so
	// this quickstart stays sequential; see examples in cmd/gcrt-demo for
	// fully concurrent operation.
	m.Park()
	freed := rt.Collect()
	freed += rt.Collect() // floating garbage is gone by the second cycle
	m.Unpark()

	fmt.Printf("collector freed %d objects; live now: %d\n", freed, rt.Arena().LiveCount())
	fmt.Printf("stats: %v\n", rt.Stats())

	// The retained prefix is intact: n0 → n1 → n2, then NULL.
	a := m.Load(head, 0)
	b := m.Load(a, 0)
	if a == -1 || b == -1 || m.Load(b, 0) != -1 {
		panic("list damaged")
	}
	fmt.Println("retained prefix n0 → n1 → n2 verified intact")
}
