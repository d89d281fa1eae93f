// Package core is the model checker's job layer for the reproduction of
// "Relaxing Safely: Verified On-the-fly Garbage Collection for x86-TSO"
// (Gammie, Hosking, Engelhardt; PLDI 2015). It ties together:
//
//   - the formal model of the collector over CIMP and x86-TSO
//     (packages cimp, tso, heap, gcmodel),
//   - the safety invariants of the paper's proof (package invariant),
//   - and the explicit-state model checker that re-establishes the
//     headline theorem by exhaustive search of bounded configurations
//     (packages explore, liveness).
//
// A run is one serializable JobSpec (job.go), read the same way by gcmc
// and the gcmcd daemon and executed by RunJob. The executable collector
// kernel with real goroutine mutators is package gcrt; core does not
// link it.
//
// The headline property, checked at every reachable state:
//
//	GC ∥ M1 ∥ … ∥ Mn ∥ Sys ⊨ □(∀r. reachable r → valid_ref r)
package core

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/checkpoint"
	"repro/internal/explore"
	"repro/internal/gcmodel"
	"repro/internal/heap"
	"repro/internal/invariant"
	"repro/internal/liveness"
	"repro/internal/storage"
)

// ModelConfig re-exports the model configuration.
type ModelConfig = gcmodel.Config

// Progress re-exports the checker's progress report.
type Progress = explore.Progress

// VerifyOptions re-exports JobOptions, the one description of what a
// run checks: Verify takes the same options a JobSpec carries.
type VerifyOptions = JobOptions

// VerifyResult reports a verification run.
type VerifyResult struct {
	// Result is the raw exploration outcome.
	explore.Result
	// Model is the built model (for rendering traces).
	Model *gcmodel.Model
	// Liveness is the fair-cycle checker's outcome, nil unless
	// JobOptions.Liveness was set (and the safety pass was clean).
	Liveness *liveness.Result
	// Effects is the effect validator used by the run, nil unless
	// JobOptions.ValidateEffects was set. Its Stats method reports
	// how many transitions and states were validated.
	Effects *analysis.Validator
	// ResumeDropped is the number of torn segments at the end of the
	// checkpoint log that the resume dropped (checkpoint.Snapshot.Dropped):
	// the run redid their layers.
	ResumeDropped int
	// Audited says the run had the collision auditor (JobOptions.Audit):
	// HashCollisions is then its count, and Degraded says the count covers
	// only part of the run.
	Audited bool
}

// Holds reports whether the checked properties are established on the
// bounded configuration: every invariant held on every state of a
// COMPLETE exploration (and, if the liveness pass ran, every progress
// property held on a complete graph). An incomplete run — capped,
// interrupted, memory-budgeted, or poisoned by a panic — never
// establishes the property; use NoViolation for the weaker "nothing
// failed in what was explored".
func (r VerifyResult) Holds() bool {
	return r.Violation == nil && r.Complete &&
		(r.Liveness == nil || (r.Liveness.Holds() && r.Liveness.Complete))
}

// NoViolation reports that no invariant or progress violation was found
// in whatever portion of the state space was explored. For incomplete
// runs this is evidence, not proof.
func (r VerifyResult) NoViolation() bool {
	return r.Violation == nil && (r.Liveness == nil || r.Liveness.Holds())
}

// Status names the verdict category: "verified" (complete and clean),
// "no-violation" (clean but incomplete), "violation", or
// "liveness-violation".
func (r VerifyResult) Status() string {
	switch {
	case r.Violation != nil:
		return "violation"
	case r.Liveness != nil && !r.Liveness.Holds():
		return "liveness-violation"
	case r.Holds():
		return "verified"
	default:
		return "no-violation"
	}
}

// RenderViolation formats the counterexample, or "" if none.
func (r VerifyResult) RenderViolation() string {
	if r.Violation == nil {
		return ""
	}
	return r.Violation.Render(r.Model)
}

// battery selects the invariant set a run checks.
func battery(opt JobOptions) []invariant.Check {
	if opt.HeadlineOnly {
		return invariant.Safety()
	}
	return invariant.All()
}

// exploreOptions maps a run's options and environment onto the
// checker's options. Verify and Fingerprint share it so the fingerprint
// computed without running is exactly the one the checkpoint layer
// embeds and validates on resume. Traces are always recorded: a verdict
// must carry its counterexample.
func exploreOptions(opt JobOptions, run JobRun) explore.Options {
	eopt := explore.Options{
		MaxStates:     opt.MaxStates,
		MaxDepth:      opt.MaxDepth,
		Trace:         true,
		Progress:      run.Progress,
		ProgressEvery: run.ProgressEvery,
		Workers:       opt.Workers,
		HashOnly:      !opt.Audit,
		Reduce:        opt.Reduce,
		Context:       run.Context,
		Checkpoint: explore.CheckpointOptions{
			Path:        run.CheckpointPath,
			EveryLayers: opt.CheckpointEvery,
		},
		MemBudget: int64(opt.MemBudgetMiB) << 20,
		FS:        run.FS,
	}
	if opt.Spill {
		eopt.SpillDir = run.SpillDir
	}
	return eopt
}

// Fingerprint computes the verdict-relevant options fingerprint of a
// configuration + options pair without exploring anything: the exact
// fingerprint the checkpoint layer validates on resume (model config,
// invariant battery, every option that changes which states are visited
// or what is checked; worker count excluded), extended with the
// liveness-pass selections the safety checker does not see. The verdict
// cache (package server) keys completed verdicts by it, so a repeated
// submission is recognized before any state is expanded.
func Fingerprint(cfg ModelConfig, opt JobOptions) (uint64, string, error) {
	m, err := gcmodel.Build(cfg)
	if err != nil {
		return 0, "", fmt.Errorf("core: %w", err)
	}
	eopt := exploreOptions(opt, JobRun{})
	if opt.ValidateEffects {
		// Only the presence of a checking visitor enters the summary; the
		// empty adapter stands in for the one Verify installs.
		eopt.Visitors = []explore.Visitor{effectsVisitor{}}
	}
	_, summary := explore.OptionsFingerprint(m, battery(opt), eopt)
	summary = fmt.Sprintf("%s liveness=%v liveProps=%v", summary, opt.liveness(), opt.LivenessProps)
	return gcmodel.Hash64([]byte(summary)), summary, nil
}

// Verify model-checks a configuration against the paper's invariants,
// in memory: no checkpoint, progress, cancellation or spill. A run with
// an environment goes through RunJob.
func Verify(cfg ModelConfig, opt VerifyOptions) (VerifyResult, error) {
	return verify(cfg, opt, JobRun{})
}

// verify is Verify in the environment run describes.
func verify(cfg ModelConfig, opt JobOptions, run JobRun) (VerifyResult, error) {
	m, err := gcmodel.Build(cfg)
	if err != nil {
		return VerifyResult{}, fmt.Errorf("core: %w", err)
	}
	checks := battery(opt)
	eopt := exploreOptions(opt, run)
	dropped := 0
	if run.Resume != "" {
		snap, err := checkpoint.LoadFS(storage.OrOS(run.FS), run.Resume)
		if err != nil {
			return VerifyResult{}, fmt.Errorf("core: %w", err)
		}
		eopt.Resume, dropped = snap, snap.Dropped
	}
	var val *analysis.Validator
	if opt.ValidateEffects {
		val, err = analysis.NewValidator(m)
		if err != nil {
			return VerifyResult{}, fmt.Errorf("core: %w", err)
		}
		eopt.Visitors = []explore.Visitor{effectsVisitor{val}}
	}
	var rec *liveness.Recorder
	var lopt liveness.Options
	if opt.liveness() {
		if opt.LivenessProps != nil {
			lopt.Properties, err = liveness.ByName(m, opt.LivenessProps)
			if err != nil {
				return VerifyResult{}, fmt.Errorf("core: %w", err)
			}
		}
		// A safety pass that walks the full relation from the initial
		// state is the exploration the cycle search needs: record its
		// graph instead of exploring a second time.
		if !opt.Reduce && run.Resume == "" {
			rec, err = liveness.NewRecorder(m, lopt)
			if err != nil {
				return VerifyResult{}, fmt.Errorf("core: %w", err)
			}
			eopt.Visitors = append(eopt.Visitors, rec)
		}
	}
	res := explore.Run(m, checks, eopt)
	vr := VerifyResult{Result: res, Model: m, Effects: val, ResumeDropped: dropped, Audited: opt.Audit}
	if res.Stopped == explore.StopResume {
		return vr, fmt.Errorf("core: %w", res.Err)
	}
	// The liveness pass runs only when the safety pass ended on its own
	// terms: an interruption, memory stop, or worker panic means the user
	// (or the machine) wants the run over, not more work.
	switch res.Stopped {
	case explore.StopInterrupted, explore.StopMemBudget, explore.StopPanic, explore.StopSpill:
		return vr, nil
	}
	if opt.liveness() && res.Violation == nil {
		var lres liveness.Result
		if rec != nil {
			lres, err = rec.Result(res)
		} else {
			lres, err = liveness.Check(m, lopt, eopt)
		}
		if err != nil {
			return vr, fmt.Errorf("core: %w", err)
		}
		vr.Liveness = &lres
	}
	return vr, nil
}

// effectsVisitor adapts the effect validator to the checker's visitor
// hooks: a disagreement with the declared footprint fails the run.
type effectsVisitor struct{ val *analysis.Validator }

func (v effectsVisitor) Edge(e explore.Edge) error  { return v.val.CheckEvent(e.From, e.To, e.Ev) }
func (v effectsVisitor) State(n explore.Node) error { return v.val.CheckState(n.State) }
func (effectsVisitor) Checks() bool                 { return true }

// TinyConfig is the smallest interesting verification instance: one
// mutator over two objects (h → x, only h rooted), with stores, loads
// and discards, a store-buffer bound of 2, and a per-cycle budget of two
// heap operations.
func TinyConfig() ModelConfig {
	return ModelConfig{
		NMutators: 1,
		NRefs:     2,
		NFields:   1,
		MaxBuf:    2,
		OpBudget:  2,
		InitObjects: map[heap.Ref][]heap.Ref{
			0: {1},
			1: {heap.NilRef},
		},
		InitRoots:     []heap.RefSet{heap.SetOf(0)},
		AllowNilStore: true,
		DisableAlloc:  true,
	}
}

// AllocConfig adds allocation over a three-reference universe.
func AllocConfig() ModelConfig {
	cfg := TinyConfig()
	cfg.NRefs = 3
	cfg.DisableAlloc = false
	return cfg
}

// TwoMutatorConfig exercises ragged handshakes: two mutators share the
// heap; budgets and buffers are kept minimal so exhaustive runs stay
// tractable.
func TwoMutatorConfig() ModelConfig {
	return ModelConfig{
		NMutators: 2,
		NRefs:     2,
		NFields:   1,
		MaxBuf:    1,
		OpBudget:  1,
		InitObjects: map[heap.Ref][]heap.Ref{
			0: {1},
			1: {heap.NilRef},
		},
		InitRoots:     []heap.RefSet{heap.SetOf(0), heap.SetOf(1)},
		AllowNilStore: true,
		DisableAlloc:  true,
		DisableLoad:   true,
	}
}

// SymmetricConfig is TwoMutatorConfig with identical initial roots: both
// mutators start holding the same object, so they contend for one
// reference instead of working on disjoint ones. Discards and fences are
// disabled to keep the exhaustive run tractable (1,368,408 states;
// EXPERIMENTS.md E17).
func SymmetricConfig() ModelConfig {
	cfg := TwoMutatorConfig()
	cfg.InitRoots = []heap.RefSet{heap.SetOf(0), heap.SetOf(0)}
	cfg.DisableDiscard = true
	cfg.DisableMFence = true
	return cfg
}

// TwoMutatorLoadsConfig is TwoMutatorConfig with heap loads enabled:
// the workload needed by the §2 insertion-barrier hiding scenario (a
// mutator loads a white reference and stores it behind the wavefront).
func TwoMutatorLoadsConfig() ModelConfig {
	cfg := TwoMutatorConfig()
	cfg.DisableLoad = false
	return cfg
}

// ChainConfig roots a two-link chain h → x → y, the Figure 1 shape: grey
// protection along white chains is what the deletion barrier preserves.
func ChainConfig() ModelConfig {
	return ModelConfig{
		NMutators: 1,
		NRefs:     3,
		NFields:   1,
		MaxBuf:    1,
		OpBudget:  2,
		InitObjects: map[heap.Ref][]heap.Ref{
			0: {1},
			1: {2},
			2: {heap.NilRef},
		},
		InitRoots:      []heap.RefSet{heap.SetOf(0)},
		AllowNilStore:  true,
		DisableAlloc:   true,
		DisableDiscard: true,
	}
}
