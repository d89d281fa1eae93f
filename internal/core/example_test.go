package core_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/trace"
)

// Without the deletion barrier the collector loses an object: the search
// finds the paper's §2 interleaving, in which the mutator loads x into
// its roots and erases the only heap edge to it behind the marking
// wavefront, and the sweep frees x while the mutator can still reach it.
func ExampleVerify() {
	cfg := core.TinyConfig()
	core.Ablations{NoDeletionBarrier: true}.Apply(&cfg)
	// One worker: the violating state and its depth are the same at any
	// width, but the path follows whichever parent won each insert race.
	res, err := core.Verify(cfg, core.VerifyOptions{Trace: true, HeadlineOnly: true, Workers: 1})
	if err != nil {
		panic(err)
	}
	v := res.Violation
	fmt.Println(v)
	// The last 21 steps: from the mutator's load of x to the free.
	for i := len(v.Trace) - 21; i < len(v.Trace); i++ {
		fmt.Printf("%3d. %s\n", i+1, trace.Event(res.Model, v.Trace[i].Ev))
	}
	// Output:
	// valid_refs_inv violated at depth 82: reachable references {1} have no object (roots {0 1}, heap {0*:[-]})
	//  62. mut0: mut0_load_pick
	//  63. mut0 ⇄ sys: mut0_load [p1 read 0.0]
	//  64. mut0: mut0_store_pick
	//  65. mut0 ⇄ sys: mut0_store_load_old [p1 read 0.0]
	//  66. mut0 ⇄ sys: mut0_store_write [p1 write 0.0←-1]
	//  67. sys: sys-dequeue-write-buffer
	//  68. gc ⇄ sys: gc_load_fld [p0 read 0.0]
	//  69. gc ⇄ sys: gc_hs_work_start [p0 hs-start get-work/work]
	//  70. gc ⇄ sys: gc_hs_work_mfence_init [p0 mfence]
	//  71. gc ⇄ sys: gc_hs_work_signal [p0 hs-signal m0]
	//  72. mut0 ⇄ sys: mut0_hs_poll [p1 hs-poll]
	//  73. mut0 ⇄ sys: mut0_hs_mfence_accept [p1 mfence]
	//  74. mut0 ⇄ sys: mut0_hs_mfence_finish [p1 mfence]
	//  75. mut0 ⇄ sys: mut0_hs_done [p1 hs-done WM={}]
	//  76. gc ⇄ sys: gc_hs_work_wait_all [p0 hs-wait-all]
	//  77. gc ⇄ sys: gc_hs_work_mfence_done [p0 mfence]
	//  78. gc ⇄ sys: gc_write_phase_sweep [p0 write phase←3]
	//  79. gc ⇄ sys: gc_refs_snapshot [p0 refs]
	//  80. gc ⇄ sys: gc_load_sweep_flag [p0 read flag(0)]
	//  81. gc ⇄ sys: gc_load_sweep_flag [p0 read flag(1)]
	//  82. gc ⇄ sys: gc_free [p0 free]
}

// The partial-order reduction pursues one successor at states where some
// process's next step provably commutes with everything else, and keeps
// the verdict. Package diffcheck checks that claim on a corpus; this is
// one two-mutator instance explored both ways.
func ExampleVerify_reduce() {
	cfg := core.SymmetricConfig()
	cfg.DisableStore = true // a handshake-only workload keeps both runs instant
	for _, reduce := range []bool{false, true} {
		res, err := core.Verify(cfg, core.VerifyOptions{Reduce: reduce})
		if err != nil {
			panic(err)
		}
		fmt.Printf("reduce=%-5v states=%d ample=%d %s\n", reduce, res.States, res.AmpleStates, res.Status())
	}
	// Output:
	// reduce=false states=768 ample=0 verified
	// reduce=true  states=686 ample=335 verified
}
