// Liveness: check the paper's informal progress obligations with the
// fair-cycle detector, and watch a broken collector fail them.
//
// The paper proves only safety (□(reachable r → valid_ref r)) and
// leaves liveness — handshakes complete, the collector reaches sweep,
// buffers drain — unproven. The liveness subsystem closes that gap on
// bounded configurations: it materializes the reachable state graph and
// searches it for weakly fair cycles on which a progress obligation
// stays outstanding forever. Weak fairness is what separates real
// protocol bugs from scheduler artifacts: a cycle only counts if no
// runnable process is starved, no committable buffer procrastinated,
// and no pending handshake left unpolled by a runnable mutator.
//
// This example verifies a clean configuration, then breaks it twice:
//
//   - -mute-handshake: mutators never poll, so a signaled handshake is
//     never acknowledged (the paper's §3.1 regular-polling assumption
//     dropped);
//   - -no-dequeue: the system never commits buffered stores, so TSO
//     write buffers grow stale forever (the hardware drain assumption
//     dropped).
//
// Each break yields a lasso counterexample: a finite stem, then a cycle
// that repeats forever — replayed and validated step-by-step through
// the same transition relation the safety checker explores.
//
// Run:
//
//	go run ./examples/liveness
package main

import (
	"fmt"

	"repro/internal/core"
)

func config() core.ModelConfig {
	cfg := core.TinyConfig()
	// Stores only, budget 1, buffers bounded at 1: small enough to keep
	// all three runs instant.
	cfg.OpBudget = 1
	cfg.MaxBuf = 1
	cfg.DisableLoad = true
	cfg.DisableDiscard = true
	return cfg
}

func check(name string, cfg core.ModelConfig) core.VerifyResult {
	res, err := core.Verify(cfg, core.VerifyOptions{Liveness: true})
	if err != nil {
		panic(err)
	}
	lr := res.Liveness
	fmt.Printf("%s: %d states, %d transitions\n", name, lr.States, lr.Transitions)
	for _, p := range lr.Properties {
		verdict := "holds"
		if !p.Holds {
			verdict = "FAIR CYCLE"
		}
		fmt.Printf("  %-14s %-10s %s\n", p.Name, verdict, p.Desc)
	}
	fmt.Println()
	return res
}

func main() {
	fmt.Println("progress properties of the collector model (weak fairness per")
	fmt.Println("process, per buffer, and per pending handshake):")
	fmt.Println()

	clean := check("clean model", config())
	if !clean.Holds() {
		panic("clean model should satisfy every progress property")
	}

	muted := config()
	muted.MuteHandshake = true
	res := check("mute-handshake (mutators never poll)", muted)
	if res.Holds() {
		panic("muted handshake should violate hs-ack")
	}

	nodeq := config()
	nodeq.NoDequeue = true
	check("no-dequeue (buffers never commit)", nodeq)

	// Show one counterexample in full: the first violated property of
	// the muted-handshake model, as a stem + forever-repeating cycle.
	v := res.Liveness.Violations()[0]
	fmt.Printf("counterexample for %s under mute-handshake:\n", v.Name)
	fmt.Print(v.Counterexample.Render(res.Model))
	fmt.Println()
	fmt.Println("the cycle is weakly fair: every process with a continuously enabled")
	fmt.Println("step takes one, every committable buffer commits, yet the handshake")
	fmt.Println("pending bit is set at every state of the cycle — a real protocol")
	fmt.Println("failure, not a scheduler artifact. gcmc -liveness runs the same")
	fmt.Println("check on any preset.")
}
