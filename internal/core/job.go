// Job layer: package core is no longer just "call Verify" — a
// verification run is described by a serializable JobSpec (preset +
// bounds + ablations + options), identified by a stable fingerprint, and
// executed by RunJob, which wires checkpointing, resume, progress and
// cancellation in one place. The long-running daemon (internal/server,
// cmd/gcmcd) schedules JobSpecs on a worker pool and caches their
// verdicts by fingerprint; gcmc and gclint read the same spec
// (ReadJobSpec), so a run submitted remotely is byte-for-byte the run
// gcmc performs locally.

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

// JobOptions is the serializable subset of VerifyOptions a job may
// carry: everything verdict-relevant, nothing process-local (contexts,
// callbacks and file paths are wired by the executor, not the
// submitter).
type JobOptions struct {
	MaxStates       int      `json:"max_states,omitempty"`
	MaxDepth        int      `json:"max_depth,omitempty"`
	HeadlineOnly    bool     `json:"headline_only,omitempty"`
	Audit           bool     `json:"audit,omitempty"`
	Reduce          bool     `json:"reduce,omitempty"`
	Liveness        bool     `json:"liveness,omitempty"`
	LivenessProps   []string `json:"liveness_props,omitempty"`
	ValidateEffects bool     `json:"validate_effects,omitempty"`
	// Workers tunes the checker without affecting the verdict; it is
	// excluded from the fingerprint.
	Workers int `json:"workers,omitempty"`
	// CheckpointEvery is the number of BFS layers between snapshots when
	// the executor configures a checkpoint path (0 = checker default).
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// MemBudgetMiB is the per-job soft heap budget in MiB (0 = none).
	MemBudgetMiB int `json:"mem_budget_mib,omitempty"`
	// Spill arms the disk-spill degradation rung: the executor provides a
	// per-job spill directory and a budget-pressed run completes
	// exhaustively from disk instead of stopping at the 100% rung.
	// Representation-only; excluded from the fingerprint.
	Spill bool `json:"spill,omitempty"`
}

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

// Build resolves the spec into a concrete configuration and verify
// options. Trace recording is always on: service verdicts must carry
// counterexamples.
func (s JobSpec) Build() (ModelConfig, VerifyOptions, error) {
	cfg, err := PresetConfig(s.Preset)
	if err != nil {
		return ModelConfig{}, VerifyOptions{}, err
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
	return cfg, s.Options.VerifyOptions(), nil
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

// VerifyOptions is the one mapping from the serializable options onto
// the ones Verify takes; the process-local fields (context, progress,
// checkpoint and spill paths, filesystem) are left for the executor.
// Naming a progress property selects the liveness pass.
func (o JobOptions) VerifyOptions() VerifyOptions {
	return VerifyOptions{
		MaxStates:       o.MaxStates,
		MaxDepth:        o.MaxDepth,
		Trace:           true,
		HeadlineOnly:    o.HeadlineOnly,
		Audit:           o.Audit,
		Reduce:          o.Reduce,
		Liveness:        o.Liveness || len(o.LivenessProps) > 0,
		LivenessProps:   o.LivenessProps,
		ValidateEffects: o.ValidateEffects,
		Workers:         o.Workers,
		CheckpointEvery: o.CheckpointEvery,
		MemBudget:       int64(o.MemBudgetMiB) << 20,
	}
}

// Fingerprint identifies the verdict the spec requests: the checkpoint
// layer's options fingerprint over the built configuration, extended
// with the liveness-pass selections. The summary string is the
// human-readable rendering (embedded in cache entries so a hit can say
// what it matched).
func (s JobSpec) Fingerprint() (uint64, string, error) {
	cfg, opt, err := s.Build()
	if err != nil {
		return 0, "", err
	}
	return Fingerprint(cfg, opt)
}

// JobRun wires a JobSpec execution into its environment: where to
// checkpoint, whether to resume, how to report progress, and the
// cancellation context. All fields are optional.
type JobRun struct {
	// CheckpointPath enables layer-barrier snapshots to this file.
	CheckpointPath string
	// Resume restores the run from CheckpointPath when that file exists
	// (a missing file starts fresh — the crash happened before the first
	// snapshot). If the checkpoint is refused (damaged, or from a
	// different build's options), the run restarts from scratch rather
	// than failing: the service must make progress after any crash.
	Resume bool
	// Progress receives periodic checker reports; ProgressEvery tunes
	// the cadence in newly visited states (0 = checker default).
	Progress      func(Progress)
	ProgressEvery int
	// Context requests graceful interruption at layer boundaries.
	Context context.Context
	// SpillDir is the directory for the disk-spill rung's parked
	// frontiers when the spec asks for it (JobOptions.Spill); empty
	// leaves the rung unarmed. The spilled records go to the checkpoint
	// log (CheckpointPath, else run.ckpt in this directory).
	SpillDir string
	// FS routes the run's disk I/O (checkpoint, spill) through a
	// pluggable filesystem; nil means the real one. Fault injection for
	// the chaos tests plugs in here.
	FS storage.FS
}

// RunJob executes a job spec. The returned bool reports whether the run
// actually resumed from a checkpoint (false when Resume was set but no
// usable checkpoint existed).
func RunJob(spec JobSpec, run JobRun) (VerifyResult, bool, error) {
	cfg, opt, err := spec.Build()
	if err != nil {
		return VerifyResult{}, false, err
	}
	opt.Context = run.Context
	opt.Progress = run.Progress
	opt.ProgressEvery = run.ProgressEvery
	opt.CheckpointPath = run.CheckpointPath
	opt.FS = run.FS
	if spec.Options.Spill && run.SpillDir != "" {
		opt.SpillDir = run.SpillDir
	}
	fsys := storage.OrOS(run.FS)
	resumed := false
	if run.Resume && run.CheckpointPath != "" {
		if _, serr := fsys.Stat(run.CheckpointPath); serr == nil {
			opt.Resume = run.CheckpointPath
			resumed = true
		}
	}
	res, err := Verify(cfg, opt)
	if err != nil && resumed {
		// A refused or corrupt checkpoint must not wedge the job: retry
		// from the initial state (the fingerprint made a mismatch
		// impossible for a same-spec resume, so this is corruption or a
		// format bump — either way a fresh run is the correct recovery).
		// The damaged file is quarantined under a .poisoned suffix, not
		// deleted: the evidence of what went wrong on disk outlives the
		// recovery.
		if rerr := fsys.Rename(run.CheckpointPath, run.CheckpointPath+".poisoned"); rerr != nil {
			// Removal beats leaving a poisoned file where the next resume
			// will trip over it again.
			fsys.Remove(run.CheckpointPath)
		}
		opt.Resume = ""
		res, err = Verify(cfg, opt)
		resumed = false
	}
	if err != nil {
		return res, resumed, fmt.Errorf("core: job %s: %w", spec.Preset, err)
	}
	return res, resumed, nil
}
