// Package verdict is the one machine-readable schema for every verdict
// this repository emits. gcmc -json, the gcmcd service (its job records
// and /v1/verdicts) and gcmc -remote all marshal these types, so a verdict produced anywhere round-trips
// everywhere: a cached service verdict prints exactly like a local run,
// and a golden-file test pins the wire format.
//
// Records carry a schema tag ("gcmc.verdict/v1") and the identity of
// the build that produced them (internal/buildinfo), so a cache filled
// by one build is auditable by the next. The non-deterministic fields —
// wall-clock timings, checkpoint counts, build identity, cache
// provenance — are isolated behind Canonical(), which zeroes them: two
// runs of the same configuration are byte-identical in canonical form
// even when one was interrupted, checkpointed and resumed.
package verdict

import (
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/explore"
)

// Schema is the wire-format tag embedded in every Record.
const Schema = "gcmc.verdict/v1"

// Record is the machine-readable outcome of one verification run.
type Record struct {
	Schema string `json:"schema"`
	// Build identifies the binary that produced the verdict (omitted in
	// canonical form).
	Build string `json:"build,omitempty"`
	// Preset and Ablations name the configuration; Fingerprint is the
	// %016x options fingerprint the verdict cache keys by.
	Preset      string `json:"preset,omitempty"`
	Ablations   string `json:"ablations,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	// Verdict is core.VerifyResult.Status(): verified | no-violation |
	// violation | liveness-violation.
	Verdict     string  `json:"verdict"`
	States      int     `json:"states"`
	Transitions int     `json:"transitions"`
	Depth       int     `json:"depth"`
	Complete    bool    `json:"complete"`
	Stopped     string  `json:"stopped,omitempty"`
	Checkpoints int     `json:"checkpoints,omitempty"`
	Deadlocks   int     `json:"deadlocks"`
	ElapsedSec  float64 `json:"elapsed_sec"`
	// Cached marks a verdict served from the service's cache rather
	// than a fresh exploration.
	Cached bool `json:"cached,omitempty"`

	Violation *Violation `json:"violation,omitempty"`
	Liveness  *Liveness  `json:"liveness,omitempty"`
	// Audit is the collision audit's summary, present when the run had
	// the audit option.
	Audit *Audit `json:"audit,omitempty"`
}

// Audit summarizes the hash-collision audit.
type Audit struct {
	// Collisions is explore.Result.HashCollisions.
	Collisions int `json:"collisions"`
	// Partial says the count covers only part of the run
	// (explore.Result.Degraded): the memory watchdog dropped the auditor,
	// or the run resumed from a checkpoint.
	Partial bool `json:"partial,omitempty"`
}

// Violation describes a safety counterexample.
type Violation struct {
	Invariant string `json:"invariant"`
	Depth     int    `json:"depth"`
	TraceLen  int    `json:"trace_len"`
	// Rendered is the human-readable counterexample trace, so remote
	// and cached verdicts still show the full failing run.
	Rendered string `json:"rendered,omitempty"`
}

// Liveness is the fair-cycle pass summary.
type Liveness struct {
	States      int        `json:"states"`
	Transitions int        `json:"transitions"`
	Depth       int        `json:"depth"`
	Complete    bool       `json:"complete"`
	Stopped     string     `json:"stopped,omitempty"`
	ElapsedSec  float64    `json:"elapsed_sec"`
	Holds       bool       `json:"holds"`
	Properties  []Property `json:"properties"`
}

// Property is one progress-property verdict.
type Property struct {
	Name     string `json:"name"`
	Desc     string `json:"desc,omitempty"`
	Holds    bool   `json:"holds"`
	StemLen  int    `json:"stem_len,omitempty"`
	CycleLen int    `json:"cycle_len,omitempty"`
	Rendered string `json:"rendered,omitempty"`
}

// New builds a Record from a finished run. preset and ablations label
// the configuration (ablations may be empty); fp is the options
// fingerprint (0 omits the field).
func New(preset string, ablations core.Ablations, fp uint64, res core.VerifyResult) Record {
	r := Record{
		Schema:      Schema,
		Preset:      preset,
		Ablations:   ablations.String(),
		Verdict:     res.Status(),
		States:      res.States,
		Transitions: res.Transitions,
		Depth:       res.Depth,
		Complete:    res.Complete,
		Stopped:     string(res.Stopped),
		Checkpoints: res.Checkpoints,
		Deadlocks:   res.Deadlocks,
		ElapsedSec:  res.Elapsed.Seconds(),
	}
	if fp != 0 {
		r.Fingerprint = fmt.Sprintf("%016x", fp)
	}
	if res.Audited {
		r.Audit = &Audit{Collisions: res.HashCollisions, Partial: res.Degraded}
	}
	if res.Violation != nil {
		r.Violation = &Violation{
			Invariant: res.Violation.Invariant,
			Depth:     res.Violation.Depth,
			TraceLen:  len(res.Violation.Trace),
			Rendered:  res.RenderViolation(),
		}
	}
	if lr := res.Liveness; lr != nil {
		l := &Liveness{
			States:      lr.States,
			Transitions: lr.Transitions,
			Depth:       lr.Depth,
			Complete:    lr.Complete,
			Stopped:     string(lr.Stopped),
			ElapsedSec:  lr.Elapsed.Seconds(),
			Holds:       lr.Holds(),
		}
		for _, p := range lr.Properties {
			jp := Property{Name: p.Name, Desc: p.Desc, Holds: p.Holds}
			if c := p.Counterexample; c != nil {
				jp.StemLen, jp.CycleLen = len(c.Stem), len(c.Cycle)
				if res.Model != nil {
					jp.Rendered = c.Render(res.Model)
				}
			}
			l.Properties = append(l.Properties, jp)
		}
		r.Liveness = l
	}
	return r
}

// Canonical returns the record with every non-deterministic field
// zeroed: build identity, wall-clock timings, checkpoint counts, cache
// provenance and whether an audit covered only part of its run. Two runs
// of the same configuration — including one that crashed mid-run and
// resumed from a checkpoint — marshal to byte-identical canonical
// records, except that a violation found at more than one worker may
// render a different path of the same length (explore.Options.Trace).
func (r Record) Canonical() Record {
	r.Build = ""
	r.ElapsedSec = 0
	r.Checkpoints = 0
	r.Cached = false
	if r.Audit != nil {
		a := *r.Audit
		a.Partial = false
		r.Audit = &a
	}
	if r.Liveness != nil {
		l := *r.Liveness
		l.ElapsedSec = 0
		r.Liveness = &l
	}
	return r
}

// Marshal renders the record as indented JSON with a trailing newline
// (the exact bytes every emitter writes).
func (r Record) Marshal() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("verdict: %w", err)
	}
	return append(b, '\n'), nil
}

// Interrupted reports whether the run (either pass) stopped on a
// cancellation signal — the CLIs map it to exit status 130.
func (r Record) Interrupted() bool { return r.StoppedOn(explore.StopInterrupted) }

// StoppedOn reports whether either pass of the run stopped for reason.
func (r Record) StoppedOn(reason explore.StopReason) bool {
	return r.Stopped == string(reason) || (r.Liveness != nil && r.Liveness.Stopped == string(reason))
}

// ExitCode maps the verdict to the shared CLI exit convention:
// 1 for any violation, 130 for an interrupted run, 0 otherwise.
func (r Record) ExitCode() int {
	switch {
	case r.Verdict == "violation" || r.Verdict == "liveness-violation":
		return 1
	case r.Interrupted():
		return 130
	}
	return 0
}
