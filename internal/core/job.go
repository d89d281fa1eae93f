// Job layer: a verification run is a serializable JobSpec (preset +
// bounds + ablations + options), identified by a stable fingerprint, and
// placed in its process by a JobRun (checkpoint and resume paths,
// progress, cancellation, filesystem). RunJob executes
// the pair and is the one executor: gcmc's local runs and the daemon's
// jobs (internal/server, cmd/gcmcd) both go through it, and gcmc reads
// its spec with ReadJobSpec, so a run submitted remotely is the run gcmc
// performs locally. RunJob runs exactly what it is given; a
// checkpoint it cannot resume is its error, and the recovery policy —
// retry, or quarantine the file and start fresh — belongs to the caller.

package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/storage"
)

// JobState names a verification job's position in the service
// lifecycle: queued → running → done/failed, with interrupted (the
// daemon stopped or crashed mid-run; a checkpoint marks the cut),
// resuming (re-enqueued from that checkpoint after a restart) and
// cancelled (a client asked for the job to stop) branching off.
type JobState string

const (
	JobQueued      JobState = "queued"
	JobRunning     JobState = "running"
	JobInterrupted JobState = "interrupted"
	JobResuming    JobState = "resuming"
	JobDone        JobState = "done"
	JobFailed      JobState = "failed"
	JobCancelled   JobState = "cancelled"
)

// Terminal reports whether the state is final: the job will never run
// again and its verdict (or error) is settled.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// JobOptions is what a run checks and how far it searches: every field
// is serializable, and everything process-local (contexts, callbacks,
// file paths) is the run's JobRun instead. Verify takes it as
// VerifyOptions.
type JobOptions struct {
	// MaxStates caps the exploration (0 = unbounded).
	MaxStates int `json:"max_states,omitempty"`
	// MaxDepth caps the BFS depth (0 = unbounded).
	MaxDepth int `json:"max_depth,omitempty"`
	// HeadlineOnly checks just valid_refs_inv instead of the full
	// battery.
	HeadlineOnly bool `json:"headline_only,omitempty"`
	// Audit attaches the checker's collision auditor
	// (explore.Options.HashOnly off): it keeps the full canonical
	// fingerprint of every visited state beside the hashed visited table,
	// counts hash collisions (VerifyResult.HashCollisions) and checks every
	// state's hash against its fingerprint. It costs string-fingerprint
	// memory and exists to validate the 64-bit hash pruning every run
	// relies on; the verdict record carries its count.
	Audit bool `json:"audit,omitempty"`
	// Reduce enables the TSO-aware partial-order reduction (skip
	// commuting interleavings of safe buffer-local steps); see
	// explore.Options.Reduce. Verdicts are preserved; the BFS
	// shortest-counterexample guarantee is not.
	Reduce bool `json:"reduce,omitempty"`
	// Liveness additionally runs the fair-cycle liveness checker
	// (package liveness): every progress property is checked for weakly
	// fair violating cycles, with lasso counterexamples in
	// VerifyResult.Liveness. The cycle search needs the graph of the
	// full, unreduced relation from the initial state. When the safety
	// pass walks exactly that (no Reduce, no resume) the graph is
	// recorded during it and the run explores once; otherwise the
	// liveness pass explores the unreduced relation itself (see
	// DESIGN.md "Liveness architecture"). Skipped when the safety pass
	// found a violation.
	Liveness bool `json:"liveness,omitempty"`
	// LivenessProps selects a subset of the progress properties by name
	// (nil = all; see liveness.All). Naming one selects the liveness
	// pass.
	LivenessProps []string `json:"liveness_props,omitempty"`
	// ValidateEffects cross-checks the static analysis layer against the
	// exploration (see package analysis): every taken transition is
	// checked against the declared effect footprint, and at every visited
	// state where the reduction would nominate an ample step, that step
	// is run against every other enabled step (analysis.CheckAmple). Any
	// failure is reported as a violation ("event-check" /
	// "state-check"). VerifyResult.Effects carries the counters.
	ValidateEffects bool `json:"validate_effects,omitempty"`
	// Workers is the number of checker goroutines per BFS layer
	// (0 = GOMAXPROCS). Verdicts do not depend on it; it is excluded
	// from the fingerprint.
	Workers int `json:"workers,omitempty"`
	// CheckpointEvery is the number of BFS layers between snapshots when
	// the run has a checkpoint path (0 = checker default).
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// MemBudgetMiB is a soft heap budget in MiB (0 = none): as the
	// checker's live heap approaches it, the run degrades in steps
	// (emergency checkpoint, then dropping the collision auditor, then a
	// clean incomplete stop) instead of dying to the OOM killer. See
	// explore.Options.MemBudget.
	MemBudgetMiB int `json:"mem_budget_mib,omitempty"`
	// Spill arms the disk-spill degradation rung when the run has a
	// checkpoint path (JobRun.CheckpointPath; gcmcd always sets one):
	// where the memory ladder would drop audit data or stop, the visited
	// records move to the checkpoint log and each frontier layer is kept
	// encoded, and the run completes exhaustively instead. A liveness pass
	// that explores on its own (with Reduce, or after a resume) writes no
	// checkpoint, so it never spills: under the budget it stops
	// incomplete. Representation-only; excluded from the fingerprint. See
	// explore.Options.Spill.
	Spill bool `json:"spill,omitempty"`
}

// liveness reports whether the run includes the liveness pass.
func (o JobOptions) liveness() bool { return o.Liveness || len(o.LivenessProps) > 0 }

// JobSpec describes one verification job completely: a named preset,
// the bounds and ablation switches overlaid on it, and the bounded-run
// options. Two specs with equal fingerprints request the same verdict.
type JobSpec struct {
	Preset    string     `json:"preset"`
	Bounds    Bounds     `json:"bounds,omitempty"`
	Ablations Ablations  `json:"ablations,omitempty"`
	Options   JobOptions `json:"options,omitempty"`
}

// Bounds overrides a preset's state-space bounds. A nil field keeps the
// preset's value; the fields are pointers so that an explicit 0 (an
// unbounded budget or store buffer) still overrides.
type Bounds struct {
	Mutators *int `json:"mutators,omitempty"`
	Refs     *int `json:"refs,omitempty"`
	Fields   *int `json:"fields,omitempty"`
	Budget   *int `json:"budget,omitempty"`
	MaxBuf   *int `json:"maxbuf,omitempty"`
}

// Build resolves the spec into a concrete configuration and the options
// Verify takes.
func (s JobSpec) Build() (ModelConfig, VerifyOptions, error) {
	cfg, err := PresetConfig(s.Preset)
	if err != nil {
		return ModelConfig{}, JobOptions{}, err
	}
	b := s.Bounds
	for _, o := range []struct{ dst, v *int }{
		{&cfg.NMutators, b.Mutators}, {&cfg.NRefs, b.Refs}, {&cfg.NFields, b.Fields},
		{&cfg.OpBudget, b.Budget}, {&cfg.MaxBuf, b.MaxBuf},
	} {
		if o.v != nil {
			*o.dst = *o.v
		}
	}
	s.Ablations.Apply(&cfg)
	return cfg, s.Options, nil
}

// DecodeStrict decodes exactly one JSON value from r into v. An unknown
// field or anything after the value is an error, so a misspelt or
// deleted setting is named instead of silently not applying. Both the
// CLIs' spec files and the daemon's POST /v1/jobs go through it.
func DecodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}

// ReadJobSpec is how a CLI names its run: the spec file at path ("-" is
// stdin), read strictly, or with path empty the bare preset (tiny when
// that is empty too). Naming both a file and a preset is an error.
func ReadJobSpec(path, preset string) (JobSpec, error) {
	if path == "" {
		if preset == "" {
			preset = "tiny"
		}
		return JobSpec{Preset: preset}, nil
	}
	if preset != "" {
		return JobSpec{}, errors.New("a spec file and a preset both name the run; give one")
	}
	f := os.Stdin
	if path != "-" {
		var err error
		if f, err = os.Open(path); err != nil {
			return JobSpec{}, err
		}
		defer f.Close()
	}
	var spec JobSpec
	if err := DecodeStrict(f, &spec); err != nil {
		return JobSpec{}, fmt.Errorf("spec %s: %w", path, err)
	}
	return spec, nil
}

// Fingerprint identifies the verdict the spec requests: the checkpoint
// layer's options fingerprint over the built configuration, extended
// with the liveness-pass selections. The summary string is the
// human-readable rendering of what the fingerprint covers.
func (s JobSpec) Fingerprint() (uint64, string, error) {
	cfg, opt, err := s.Build()
	if err != nil {
		return 0, "", err
	}
	return Fingerprint(cfg, opt)
}

// JobRun is the environment one run executes in: everything local to
// the process, none of it part of what the verdict rests on. All fields
// are optional; the zero value runs in memory.
type JobRun struct {
	// CheckpointPath enables snapshots of the search state to this file
	// at layer barriers, every JobOptions.CheckpointEvery layers. The
	// file is a log: the first snapshot is written whole (temp file and
	// rename), each later one appended as what changed.
	CheckpointPath string
	// Resume, if non-empty, restores the search from the checkpoint log
	// at this path instead of starting at the initial state. The
	// checkpoint's options must match the run's, and the resumed run
	// reaches the same counts and verdict as an uninterrupted one. A
	// checkpoint that cannot be read or is refused is an error.
	Resume string
	// Progress receives periodic checker reports; ProgressEvery is the
	// number of newly visited states between them (0 = checker default,
	// 8192).
	Progress      func(Progress)
	ProgressEvery int
	// Context requests graceful interruption: the checker observes
	// cancellation at BFS layer boundaries, writes a final checkpoint
	// when one is configured, and reports the run incomplete
	// (Stopped == explore.StopInterrupted).
	Context context.Context
	// FS routes the run's disk I/O (checkpoint, resume, spill) through a
	// pluggable filesystem; nil means the real one. Fault injection
	// (storage.FaultFS) plugs in here.
	FS storage.FS
}

// RunJob executes a job spec in the environment run describes, exactly
// as given: it renames and removes nothing, and a resume that fails (an
// unreadable or refused checkpoint) is its error. The returned bool
// reports whether the run resumed from run.Resume.
func RunJob(spec JobSpec, run JobRun) (VerifyResult, bool, error) {
	cfg, opt, err := spec.Build()
	if err != nil {
		return VerifyResult{}, false, err
	}
	res, err := verify(cfg, opt, run)
	return res, err == nil && run.Resume != "", err
}
