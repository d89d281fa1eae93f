// Package repro is a full reproduction, in Go, of "Relaxing Safely:
// Verified On-the-fly Garbage Collection for x86-TSO" (Gammie, Hosking,
// Engelhardt; PLDI 2015).
//
// The paper machine-checks safety for an on-the-fly, concurrent
// mark-sweep collector over the x86-TSO relaxed memory model. This
// repository rebuilds every system the paper describes as executable
// code and re-establishes its results by exhaustive bounded model
// checking and a runnable collector kernel:
//
//   - internal/cimp: the CIMP language and its two operational semantics
//     (paper Figures 7–8);
//   - internal/tso: the x86-TSO abstract machine and a litmus explorer
//     (Figure 9, §2.4);
//   - internal/heap: the abstract heap and tricolor machinery (§2.1);
//   - internal/gcmodel: the collector, mutators, handshakes and system
//     process as CIMP programs (Figures 2–6, 10);
//   - internal/invariant: the proof's invariants as executable
//     predicates (§3.2);
//   - internal/explore: the explicit-state model checker;
//   - internal/liveness: progress properties and weakly fair cycle
//     detection over the model's state graph;
//   - internal/analysis: the static effect/robustness analyzer (declared
//     effect footprints, CFG dataflow, Shasha–Snir robustness, placement
//     rules, the executed ample-step check), cross-checked against the
//     dynamic checker; gcmc -lint runs its placement rules on a spec;
//   - internal/analysis/golint, internal/analysis/gortlint: the
//     self-lint layer — a stdlib-only module loader and call graph, and
//     the runtime conformance passes (field-access discipline,
//     write-barrier coverage, publication discipline, benchmark-hook
//     confinement) that check internal/gcrt and internal/server against
//     their declared concurrency tables (gated by go test);
//   - internal/gcrt: the executable Schism-style collector kernel with
//     real goroutine mutators;
//   - internal/core: the library façade.
//
// The root-level benchmarks (bench_test.go) regenerate each experiment
// of DESIGN.md's per-experiment index; EXPERIMENTS.md records the
// results.
package repro
