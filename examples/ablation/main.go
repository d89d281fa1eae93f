// Ablation: why the collector needs both write barriers.
//
// This example removes the deletion (snapshot) barrier from the model and
// lets the model checker hunt for a safety violation. It finds the
// classic lost-object interleaving — a reachable object freed by the
// sweep — and prints the complete counterexample trace: every load,
// store, CAS, buffer commit and handshake along the way.
//
// It then does the same at runtime scale with the executable kernel,
// staging the identical scenario deterministically with two mutator
// goroutines.
//
// Run:
//
//	go run ./examples/ablation
package main

import (
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/gcrt"
)

func main() {
	fmt.Println("=== Part 1: model checker finds the lost-object interleaving ===")
	cfg := core.TinyConfig()
	core.Ablations{NoDeletionBarrier: true}.Apply(&cfg)

	// Workers 0 = one checker goroutine per CPU; the layer-synchronous
	// search finds the same minimal-depth counterexample at any width.
	res, err := core.Verify(cfg, core.VerifyOptions{Trace: true, HeadlineOnly: true, Workers: 0})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if res.Holds() {
		fmt.Println("unexpectedly safe — the ablation should be refutable")
		os.Exit(1)
	}
	fmt.Printf("violation found after exploring %d states:\n\n", res.States)
	fmt.Print(res.RenderViolation())

	fmt.Println()
	fmt.Println("=== Part 2: the same bug bites the runtime kernel ===")
	rt := gcrt.New(gcrt.Options{
		Slots: 16, Fields: 1, Mutators: 2, NoDeletionBarrier: true,
	})
	m1, m2 := rt.Mutator(0), rt.Mutator(1)

	h := m1.Alloc()
	x := m1.Alloc()
	m1.Store(h, 0, x)
	m1.Discard(x) // x now reachable only through h.f

	done := make(chan struct{})
	go func() { rt.Collect(); close(done) }()

	// Both mutators pass the initialization handshakes; m1 completes its
	// root scan while m2 lags, keeping the collector out of the mark
	// loop.
	for m1.Served() < 4 || m2.Served() < 4 {
		m1.SafePoint()
		m2.SafePoint()
	}
	m1.AwaitHandshakes(5)

	// Behind the wavefront: load x into m1's roots (reads carry no
	// barrier) and erase the heap edge. The ablated Store never shades x.
	xr := m1.Load(h, 0)
	m1.Store(h, 0, -1)

	m2.AwaitHandshakes(5) // now tracing starts: x is invisible
	m1.Park()
	m2.Park()
	<-done
	m1.Unpark()
	m2.Unpark()

	if rt.Arena().Allocated(m1.Root(xr)) {
		fmt.Println("x survived (unexpected)")
		os.Exit(1)
	}
	fmt.Println("x was freed while still reachable from m1's roots")
	m1.Load(xr, 0) // touching it faults
	fmt.Printf("dead-slot accesses recorded: %d\n", rt.Arena().Faults.Load())
	fmt.Println()
	fmt.Println("With the deletion barrier restored, the model checker verifies the")
	fmt.Println("same configuration exhaustively — see examples/modelcheck.")
}
