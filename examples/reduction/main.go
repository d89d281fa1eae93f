// Reduction: measure the model checker's partial-order reduction on a
// two-mutator configuration.
//
// With -reduce (E17b), at states where some process's next step is a
// provably commuting buffer-local action, only that single successor is
// pursued. The verdict is preserved — package diffcheck differentially
// validates that on every run of the test suite — while the visited
// state space shrinks. This example explores the same configuration
// full and reduced and prints the shrink factor.
//
// Run:
//
//	go run ./examples/reduction
package main

import (
	"fmt"

	"repro/internal/core"
)

func main() {
	cfg := core.SymmetricConfig()
	cfg.DisableStore = true // handshake-only workload keeps this instant

	fmt.Println("configuration: two mutators with identical roots,")
	fmt.Println("handshake-only workload, TSO buffers bounded at 1")
	fmt.Println()

	var fullStates int
	fmt.Printf("%-8s %8s %8s %7s %s\n", "mode", "states", "ample", "shrink", "verdict")
	for _, reduce := range []bool{false, true} {
		res, err := core.Verify(cfg, core.VerifyOptions{Trace: true, Reduce: reduce})
		if err != nil {
			panic(err)
		}
		name, verdict := "full", "all invariants hold"
		if reduce {
			name = "reduce"
		} else {
			fullStates = res.States
		}
		if !res.Holds() {
			verdict = "VIOLATION (unexpected!)"
		}
		fmt.Printf("%-8s %8d %8d %6.2fx %s\n",
			name, res.States, res.AmpleStates,
			float64(fullStates)/float64(res.States), verdict)
	}

	fmt.Println()
	fmt.Println("both runs explore the same reachable behaviours: the reduced run")
	fmt.Println("visits representatives of the skipped interleavings. go test")
	fmt.Println("./internal/diffcheck proves the verdicts match on litmus tests,")
	fmt.Println("random TSO programs, and a model corpus.")
}
