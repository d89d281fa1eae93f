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
// A run is one serializable JobSpec (job.go), executed the same way by
// gcmc, gclint and the gcmcd daemon. The executable collector kernel
// with real goroutine mutators is package gcrt; core does not link it.
//
// The headline property, checked at every reachable state:
//
//	GC ∥ M1 ∥ … ∥ Mn ∥ Sys ⊨ □(∀r. reachable r → valid_ref r)
package core

import (
	"context"
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

// VerifyOptions bounds a verification run.
type VerifyOptions struct {
	// MaxStates caps the exploration (0 = unbounded).
	MaxStates int
	// MaxDepth caps the BFS depth (0 = unbounded).
	MaxDepth int
	// Trace records counterexample traces.
	Trace bool
	// HeadlineOnly checks just valid_refs_inv instead of the full
	// battery.
	HeadlineOnly bool
	// Progress, if non-nil, receives periodic updates.
	Progress func(Progress)
	// ProgressEvery is the number of newly visited states between
	// Progress reports (0 = checker default, 8192). Verdict-neutral.
	ProgressEvery int
	// Workers is the number of checker worker goroutines per BFS layer
	// (0 = GOMAXPROCS). Verdicts do not depend on the worker count.
	Workers int
	// Audit retains the full canonical fingerprint of every visited
	// state alongside its 64-bit hash and counts hash collisions
	// (VerifyResult.HashCollisions). It costs string-fingerprint memory
	// and exists to validate the default compact-hash mode.
	Audit bool
	// Reduce enables the TSO-aware partial-order reduction (skip
	// commuting interleavings of safe buffer-local steps); see
	// explore.Options.Reduce. Verdicts are preserved; the BFS
	// shortest-counterexample guarantee is not.
	Reduce bool
	// Liveness additionally runs the fair-cycle liveness checker
	// (package liveness): every progress property is checked for weakly
	// fair violating cycles, with lasso counterexamples in
	// VerifyResult.Liveness. The cycle search needs the graph of the
	// full, unreduced relation from the initial state. When the safety
	// pass walks exactly that (no Reduce, no Resume) the graph is
	// recorded during it and the run explores once; otherwise
	// the liveness pass explores the unreduced relation itself (see
	// DESIGN.md "Liveness architecture"). Skipped when the safety pass
	// found a violation.
	Liveness bool
	// LivenessProps selects a subset of the progress properties by name
	// (nil = all; see liveness.All).
	LivenessProps []string
	// ValidateEffects cross-checks the static analysis layer against the
	// exploration (see package analysis): every taken transition is
	// checked against the declared effect footprint, and at every visited
	// state where the reduction would nominate an ample step, that step
	// is run against every other enabled step (analysis.CheckAmple). Any
	// failure is reported as a violation
	// ("event-check" / "state-check"). VerifyResult.Effects carries the
	// validation counters.
	ValidateEffects bool
	// Context, if non-nil, requests graceful interruption: the checker
	// observes cancellation at BFS layer boundaries, writes a final
	// checkpoint when one is configured, and reports the run incomplete
	// (Stopped == explore.StopInterrupted). See explore.Options.Context.
	Context context.Context
	// CheckpointPath enables periodic snapshots of the search state to
	// this file, a log: the first is written whole (temp file and
	// rename), each later one appended as what changed; empty disables.
	CheckpointPath string
	// CheckpointEvery is the number of BFS layers between snapshots
	// (0 = checker default).
	CheckpointEvery int
	// Resume, if non-empty, restores the search from the checkpoint file
	// at this path instead of starting at the initial state. The
	// checkpoint's options must match this run's (Verify returns an
	// error otherwise), and the resumed run reaches the same counts and
	// verdict as an uninterrupted one.
	Resume string
	// MemBudget, if positive, is a soft heap budget in bytes: as the
	// checker's live heap approaches it, the run degrades in steps
	// (emergency checkpoint, then dropping audit fingerprints, then a
	// clean incomplete stop) instead of dying to the OOM killer. See
	// explore.Options.MemBudget.
	MemBudget int64
	// SpillDir, if non-empty, arms the disk-spill degradation rung: when
	// the memory ladder would otherwise drop audit data or stop the run,
	// the visited records move to the checkpoint log (CheckpointPath, or
	// run.ckpt in this directory) and frontier layers are parked here, and
	// the run completes exhaustively instead; a spilled run with a
	// CheckpointPath resumes from its latest cut. The directory holds
	// working files only. Representation-only — excluded from the options
	// fingerprint. See explore.Options.SpillDir.
	SpillDir string
	// FS, when non-nil, routes all of the run's disk I/O (checkpoints
	// and spill files) through this filesystem; nil means the real one.
	// A fault-injecting FS (storage.FaultFS) plugs in here.
	FS storage.FS
}

// VerifyResult reports a verification run.
type VerifyResult struct {
	// Result is the raw exploration outcome.
	explore.Result
	// Model is the built model (for rendering traces).
	Model *gcmodel.Model
	// Liveness is the fair-cycle checker's outcome, nil unless
	// VerifyOptions.Liveness was set (and the safety pass was clean).
	Liveness *liveness.Result
	// Effects is the effect validator used by the run, nil unless
	// VerifyOptions.ValidateEffects was set. Its Stats method reports
	// how many transitions and states were validated.
	Effects *analysis.Validator
	// ResumeDropped is the number of torn segments at the end of the
	// checkpoint log that the resume dropped (checkpoint.Snapshot.Dropped):
	// the run redid their layers.
	ResumeDropped int
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
func battery(opt VerifyOptions) []invariant.Check {
	if opt.HeadlineOnly {
		return invariant.Safety()
	}
	return invariant.All()
}

// exploreOptions maps the public VerifyOptions onto the checker's
// options. Verify and Fingerprint share it so the fingerprint computed
// without running is exactly the one the checkpoint layer embeds and
// validates on resume.
func exploreOptions(opt VerifyOptions) explore.Options {
	return explore.Options{
		MaxStates:     opt.MaxStates,
		MaxDepth:      opt.MaxDepth,
		Trace:         opt.Trace,
		Progress:      opt.Progress,
		ProgressEvery: opt.ProgressEvery,
		Workers:       opt.Workers,
		HashOnly:      !opt.Audit,
		Reduce:        opt.Reduce,
		Context:       opt.Context,
		Checkpoint: explore.CheckpointOptions{
			Path:        opt.CheckpointPath,
			EveryLayers: opt.CheckpointEvery,
		},
		MemBudget: opt.MemBudget,
		SpillDir:  opt.SpillDir,
		FS:        opt.FS,
	}
}

// Fingerprint computes the verdict-relevant options fingerprint of a
// configuration + options pair without exploring anything: the exact
// fingerprint the checkpoint layer validates on resume (model config,
// invariant battery, every option that changes which states are visited
// or what is checked; worker count excluded), extended with the
// liveness-pass selections the safety checker does not see. The verdict
// cache (package server) keys completed verdicts by it, so a repeated
// submission is recognized before any state is expanded.
func Fingerprint(cfg ModelConfig, opt VerifyOptions) (uint64, string, error) {
	m, err := gcmodel.Build(cfg)
	if err != nil {
		return 0, "", fmt.Errorf("core: %w", err)
	}
	eopt := exploreOptions(opt)
	if opt.ValidateEffects {
		// Only the presence of a checking visitor enters the summary; the
		// empty adapter stands in for the one Verify installs.
		eopt.Visitors = []explore.Visitor{effectsVisitor{}}
	}
	_, summary := explore.OptionsFingerprint(m, battery(opt), eopt)
	summary = fmt.Sprintf("%s liveness=%v liveProps=%v", summary, opt.Liveness, opt.LivenessProps)
	return gcmodel.Hash64([]byte(summary)), summary, nil
}

// Verify model-checks a configuration against the paper's invariants.
func Verify(cfg ModelConfig, opt VerifyOptions) (VerifyResult, error) {
	m, err := gcmodel.Build(cfg)
	if err != nil {
		return VerifyResult{}, fmt.Errorf("core: %w", err)
	}
	checks := battery(opt)
	eopt := exploreOptions(opt)
	dropped := 0
	if opt.Resume != "" {
		snap, err := checkpoint.LoadFS(storage.OrOS(opt.FS), opt.Resume)
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
	if opt.Liveness {
		if opt.LivenessProps != nil {
			lopt.Properties, err = liveness.ByName(m, opt.LivenessProps)
			if err != nil {
				return VerifyResult{}, fmt.Errorf("core: %w", err)
			}
		}
		// A safety pass that walks the full relation from the initial
		// state is the exploration the cycle search needs: record its
		// graph instead of exploring a second time.
		if !opt.Reduce && opt.Resume == "" {
			rec, err = liveness.NewRecorder(m, lopt)
			if err != nil {
				return VerifyResult{}, fmt.Errorf("core: %w", err)
			}
			eopt.Visitors = append(eopt.Visitors, rec)
		}
	}
	res := explore.Run(m, checks, eopt)
	vr := VerifyResult{Result: res, Model: m, Effects: val, ResumeDropped: dropped}
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
	if opt.Liveness && res.Violation == nil {
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
