// Package analysis is a static effect and robustness analyzer for the
// CIMP programs of this repository. It complements the dynamic model
// checker (package explore) with analyses that need no state-space
// exploration, and it is cross-checked against the checker so the static
// layer cannot silently drift from the executable semantics:
//
//   - Declared effects (effects.go, extract.go): every request kind
//     carries a declared memory-system footprint (KindEffect), and every
//     labeled Request site in a built model carries a declared location
//     class (Site), extracted by probing the site's Act closure once.
//     The Validator (validate.go) replays these declarations against
//     every transition the checker takes: an observed kind, location
//     class, response label, or lock/buffer effect outside the declared
//     footprint is a hard verification failure ("declared-effects"), so
//     the static tables are exactly as trustworthy as the checker run
//     that validated them.
//
//   - Control-flow graphs and dataflow (cfg.go): per-process CFGs over
//     the command trees with reaching-unfenced-store and lock-held
//     analyses, the substrate for the robustness rules.
//
//   - TSO robustness (robust.go): a Shasha–Snir critical-cycle analysis
//     for litmus programs (package tso) — a program is TSO-robust iff no
//     program-order store→load relaxation lies on a cycle of program
//     order and conflict edges. For the GC model itself, whole-program
//     robustness is reported informationally (the collector is
//     deliberately non-robust — relaxed behavior it tolerates is the
//     paper's point) and pass/fail comes from the named placement rules
//     in rules.go: deletion/insertion barrier on every store path, CAS
//     under the TSO lock, empty buffers at handshake signals, and a
//     full handshake round between phase-protocol writes. These flag
//     exactly the barrier/lock ablations without running the checker:
//     the drop lists no_deletion_barrier, no_insertion_barrier,
//     unlocked_mark, no_hs_fence and elide_hs1–3 (gcmodel.AblationDrop),
//     and Config.InsertionBarrierOnlyBeforeRootsDone.
//
//   - Executed ample-step check (validate.go): at every state of a
//     validated exploration where gcmodel's AmpleChoice nominates a
//     step for the partial-order reduction, CheckAmple runs that step
//     against every other enabled transition. It must have one
//     successor, disable nothing, and reach the same state in both
//     orders with every step that leaves it enabled; a buffered write to
//     a class the battery observes (ObservedBuffered) is refused
//     outright.
//
// go test gates every analysis: TestLintCleanPresets and
// TestLintAblations run the placement rules over every preset and
// ablation, and TestLitmusRobustness holds each litmus verdict to TSO/SC
// exploration. cmd/gcmc -lint runs the rules on one spec before
// exploring it, and options.validate_effects enables the dynamic
// validation hooks.
package analysis
