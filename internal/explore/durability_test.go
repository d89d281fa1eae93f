package explore

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/gcmodel"
	"repro/internal/invariant"
)

// cancelled returns an already-cancelled context: a run given one
// expands exactly one layer ("finish the current layer") and then stops
// at the boundary, writing a final checkpoint — the deterministic
// equivalent of a SIGINT at every layer.
func cancelled() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// verdict is the comparable core of a Result.
type verdict struct {
	states, transitions, depth, deadlocks, ample int
	visitedBytes                                 int64
	complete                                     bool
	stopped                                      StopReason
	violation                                    string
}

func verdictOf(res Result) verdict {
	v := verdict{
		states: res.States, transitions: res.Transitions, depth: res.Depth,
		deadlocks: res.Deadlocks, ample: res.AmpleStates,
		visitedBytes: res.VisitedBytes,
		complete:     res.Complete, stopped: res.Stopped,
	}
	if res.Violation != nil {
		v.violation = res.Violation.Error()
	}
	return v
}

// TestKillResumeDifferential is the resume-determinism acceptance test:
// a run killed at EVERY layer boundary and resumed from the checkpoint
// — rotating the worker count between restarts, with and without the
// partial-order reduction — must reach the identical final state count,
// transition count, depth, deadlock count, and verdict as the
// uninterrupted run.
func TestKillResumeDifferential(t *testing.T) {
	cfg := safeCfg()
	m := mustBuild(t, cfg)
	const maxDepth = 40 // bounds the chain at 40 kill/resume cycles
	for _, reduce := range []bool{false, true} {
		name := "full"
		if reduce {
			name = "reduce"
		}
		t.Run(name, func(t *testing.T) {
			base := Options{
				MaxDepth: maxDepth,
				Trace:    true,
				HashOnly: true,
				Reduce:   reduce,
				Shards:   8,
			}
			clean := base
			clean.Workers = 1
			want := Run(m, invariant.Safety(), clean)
			if want.Stopped != StopMaxDepth {
				t.Fatalf("baseline stopped %q, want max-depth", want.Stopped)
			}

			path := filepath.Join(t.TempDir(), "run.ckpt")
			workerRotation := []int{1, 2, 4}
			var res Result
			rounds := 0
			for {
				opt := base
				opt.Workers = workerRotation[rounds%len(workerRotation)]
				opt.Checkpoint = CheckpointOptions{Path: path, EveryLayers: 1}
				if rounds > 0 {
					snap, err := checkpoint.Load(path)
					if err != nil {
						t.Fatalf("round %d: %v", rounds, err)
					}
					opt.Resume = snap
				}
				opt.Context = cancelled()
				res = Run(m, invariant.Safety(), opt)
				rounds++
				if res.Stopped != StopInterrupted {
					break
				}
				if res.Err != nil {
					t.Fatalf("round %d: %v", rounds, res.Err)
				}
				if rounds > maxDepth+2 {
					t.Fatalf("no termination after %d kill/resume rounds", rounds)
				}
			}
			t.Logf("%d kill/resume rounds", rounds)
			if rounds < 10 {
				t.Fatalf("only %d rounds — the chain did not exercise per-layer resume", rounds)
			}
			got, wantV := verdictOf(res), verdictOf(want)
			// The interrupted chain's Checkpoints counter differs by
			// construction; everything else must be identical.
			if got != wantV {
				t.Fatalf("kill/resume diverged:\n got %+v\nwant %+v", got, wantV)
			}
		})
	}
}

// TestInterruptOnceResumeToCompletion: one mid-run interruption, then an
// uninterrupted resume of the FULL (unbounded) exploration, must exactly
// reproduce the clean run — including Complete=true.
func TestInterruptOnceResumeToCompletion(t *testing.T) {
	m := mustBuild(t, safeCfg())
	base := Options{Trace: true, HashOnly: true, Shards: 8}

	clean := base
	clean.Workers = 2
	want := Run(m, invariant.Safety(), clean)
	if !want.Complete {
		t.Fatal("baseline incomplete")
	}

	path := filepath.Join(t.TempDir(), "run.ckpt")
	first := base
	first.Workers = 4
	first.Checkpoint = CheckpointOptions{Path: path, EveryLayers: 1}
	first.Context = cancelled()
	r1 := Run(m, invariant.Safety(), first)
	if r1.Stopped != StopInterrupted || r1.Complete {
		t.Fatalf("interrupted run: stopped=%q complete=%v", r1.Stopped, r1.Complete)
	}
	if r1.Checkpoints == 0 {
		t.Fatal("no checkpoint written on interruption")
	}

	snap, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	second := base
	second.Workers = 2
	second.Resume = snap
	res := Run(m, invariant.Safety(), second)
	if !res.Complete {
		t.Fatalf("resumed run incomplete: stopped=%q err=%v", res.Stopped, res.Err)
	}
	if g, w := verdictOf(res), verdictOf(want); g != w {
		t.Fatalf("resumed run diverged:\n got %+v\nwant %+v", g, w)
	}
}

// TestResumeViolationTraceReplays: a violation found after a resume must
// carry a full counterexample trace — the parent chain crosses the
// checkpoint boundary through the restored trace table — identical to
// the clean run's.
func TestResumeViolationTraceReplays(t *testing.T) {
	cfg := baseCfg()
	cfg.NoDeletionBarrier = true
	m := mustBuild(t, cfg)
	base := Options{Trace: true, HashOnly: true}

	clean := base
	clean.Workers = 2
	want := Run(m, invariant.Safety(), clean)
	if want.Violation == nil {
		t.Fatal("ablated model found no violation")
	}

	path := filepath.Join(t.TempDir(), "run.ckpt")
	var res Result
	for rounds := 0; ; rounds++ {
		opt := base
		opt.Workers = 1 + rounds%3
		opt.Checkpoint = CheckpointOptions{Path: path, EveryLayers: 1}
		if rounds > 0 {
			snap, err := checkpoint.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			opt.Resume = snap
		}
		opt.Context = cancelled()
		res = Run(m, invariant.Safety(), opt)
		if res.Stopped != StopInterrupted {
			break
		}
		if rounds > 100 {
			t.Fatal("no violation after 100 rounds")
		}
	}
	if res.Stopped != StopViolation || res.Violation == nil {
		t.Fatalf("stopped=%q violation=%v", res.Stopped, res.Violation)
	}
	if res.Violation.Invariant != want.Violation.Invariant ||
		res.Violation.Depth != want.Violation.Depth ||
		len(res.Violation.Trace) != len(want.Violation.Trace) {
		t.Fatalf("violation diverged: got %s@%d trace=%d, want %s@%d trace=%d",
			res.Violation.Invariant, res.Violation.Depth, len(res.Violation.Trace),
			want.Violation.Invariant, want.Violation.Depth, len(want.Violation.Trace))
	}
	if g, w := m.Fingerprint(res.Violation.State), m.Fingerprint(want.Violation.State); g != w {
		t.Fatal("violating state diverged after resume")
	}
}

// TestResumeRefusesOptionMismatch: a checkpoint written under one
// verdict-relevant option set must refuse to resume under another — the
// canonical case being a -reduce checkpoint into an unreduced run.
func TestResumeRefusesOptionMismatch(t *testing.T) {
	m := mustBuild(t, safeCfg())
	path := filepath.Join(t.TempDir(), "run.ckpt")
	mk := Options{
		HashOnly:   true,
		Reduce:     true,
		Checkpoint: CheckpointOptions{Path: path, EveryLayers: 1},
		Context:    cancelled(),
		Workers:    1,
	}
	if res := Run(m, invariant.Safety(), mk); res.Stopped != StopInterrupted {
		t.Fatalf("setup run stopped %q", res.Stopped)
	}
	snap, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	refused := func(t *testing.T, opt Options) {
		t.Helper()
		res := Run(m, invariant.Safety(), opt)
		if res.Stopped != StopResume || res.Err == nil {
			t.Fatalf("mismatched resume accepted: stopped=%q err=%v", res.Stopped, res.Err)
		}
		if res.States != 0 {
			t.Fatalf("refused resume explored %d states", res.States)
		}
		if !strings.Contains(res.Err.Error(), "different options") {
			t.Fatalf("unhelpful refusal: %v", res.Err)
		}
	}
	for name, tweak := range map[string]func(*Options){
		"reduce-off":    func(o *Options) { o.Reduce = false },
		"audit-on":      func(o *Options) { o.HashOnly = false },
		"trace-on":      func(o *Options) { o.Trace = true },
		"depth-capped":  func(o *Options) { o.MaxDepth = 5 },
		"states-capped": func(o *Options) { o.MaxStates = 100 },
	} {
		t.Run(name, func(t *testing.T) {
			opt := Options{HashOnly: true, Reduce: true, Workers: 2, Resume: snap}
			tweak(&opt)
			refused(t, opt)
		})
	}
	// A checkpoint an older build wrote under mutator symmetry is keyed by
	// canonical fingerprints this engine cannot reproduce: its embedded
	// summary says symmetry=true, which no run's summary matches.
	t.Run("symmetry-on", func(t *testing.T) {
		old := *snap
		old.Options = strings.Replace(snap.Options, "symmetry=false", "symmetry=true", 1)
		if old.Options == snap.Options {
			t.Fatalf("summary lost its frozen symmetry field: %s", snap.Options)
		}
		old.OptionsFP = gcmodel.Hash64([]byte(old.Options))
		refused(t, Options{HashOnly: true, Reduce: true, Workers: 2, Resume: &old})
	})
	// Worker count is NOT verdict-relevant: resuming with any worker
	// count must be accepted (covered throughout this file); the battery
	// itself changing must refuse.
	t.Run("different-checks", func(t *testing.T) {
		res := Run(m, invariant.All(), Options{HashOnly: true, Reduce: true, Resume: snap})
		if res.Stopped != StopResume {
			t.Fatalf("resume under a different invariant battery accepted: %q", res.Stopped)
		}
	})
}

// TestResumeRefusesTamperedFrontier: corruption that slips past the
// section CRCs cannot happen by accident, but a state decode check must
// still reject a frontier that does not round-trip (defense in depth for
// hand-edited or version-skewed files).
func TestResumeRefusesTamperedFrontier(t *testing.T) {
	m := mustBuild(t, safeCfg())
	path := filepath.Join(t.TempDir(), "run.ckpt")
	mk := Options{
		HashOnly:   true,
		Checkpoint: CheckpointOptions{Path: path, EveryLayers: 1},
		Context:    cancelled(),
		Workers:    1,
	}
	if res := Run(m, invariant.Safety(), mk); res.Stopped != StopInterrupted {
		t.Fatalf("setup run stopped %q", res.Stopped)
	}
	snap, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Frontier) == 0 {
		t.Fatal("empty frontier")
	}
	good := append([]byte(nil), snap.Frontier[0]...)
	for name, bad := range map[string][]byte{
		"truncated": good[:len(good)-1],
		"trailing":  append(append([]byte(nil), good...), 0),
	} {
		t.Run(name, func(t *testing.T) {
			snap.Frontier[0] = bad
			res := Run(m, invariant.Safety(), Options{HashOnly: true, Workers: 1, Resume: snap})
			if res.Stopped != StopResume || res.Err == nil {
				t.Fatalf("tampered frontier accepted: stopped=%q err=%v", res.Stopped, res.Err)
			}
		})
	}
}

// edgeFunc is a checking Visitor that looks at transitions only.
type edgeFunc func(Edge) error

func (f edgeFunc) Edge(e Edge) error { return f(e) }
func (edgeFunc) State(Node) error    { return nil }
func (edgeFunc) Checks() bool        { return true }

// TestWorkerPanicContained is the panic-containment acceptance test: a
// panicking check in a worker must terminate the run within one layer
// with a structured error — never a hang, never a crash, never a
// "holds" verdict.
func TestWorkerPanicContained(t *testing.T) {
	m := mustBuild(t, safeCfg())
	for _, workers := range []int{1, 4} {
		var events atomic.Int64
		opt := Options{
			Workers:  workers,
			HashOnly: true,
			Visitors: []Visitor{edgeFunc(func(Edge) error {
				if events.Add(1) == 2000 {
					panic("injected fault: event check exploded")
				}
				return nil
			})},
		}
		res := Run(m, invariant.Safety(), opt)
		if res.Stopped != StopPanic {
			t.Fatalf("workers=%d: stopped=%q, want panic", workers, res.Stopped)
		}
		if res.Complete {
			t.Fatalf("workers=%d: poisoned run reported complete", workers)
		}
		var pe *PanicError
		if !errors.As(res.Err, &pe) {
			t.Fatalf("workers=%d: Err = %v, want *PanicError", workers, res.Err)
		}
		if pe.Value == nil || len(pe.Stack) == 0 {
			t.Fatalf("workers=%d: panic report incomplete: %+v", workers, pe)
		}
		if !strings.Contains(string(pe.Stack), "TestWorkerPanicContained") {
			t.Fatalf("workers=%d: stack does not reach the panic origin:\n%s", workers, pe.Stack)
		}
		if pe.StateHash == 0 {
			t.Fatalf("workers=%d: offending state not identified", workers)
		}
		if _, ok := res.Err.(*PanicError); !ok {
			t.Fatalf("workers=%d: Err is %T", workers, res.Err)
		}
		if s := pe.Error(); !strings.Contains(s, "injected fault") {
			t.Fatalf("workers=%d: error message lost the panic value: %s", workers, s)
		}
	}
}

// TestMemBudgetLadder drives the watchdog through its whole degradation
// ladder with a scripted heap probe: below 70% nothing happens; at 70%
// exactly one emergency checkpoint; at 85% audit fingerprints are
// dropped (Degraded); at 100% a final checkpoint and a clean
// StopMemBudget. The degraded checkpoint then resumes into an
// audit-configured run, which continues hash-only to the same verdict
// as a clean audit run.
func TestMemBudgetLadder(t *testing.T) {
	m := mustBuild(t, safeCfg())
	const budget = 1 << 30
	samples := []int64{
		budget * 10 / 100,  // layer 1: calm
		budget * 75 / 100,  // layer 2: emergency checkpoint
		budget * 75 / 100,  // layer 3: emergency already taken, no second one
		budget * 90 / 100,  // layer 4: drop audit fingerprints
		budget * 110 / 100, // layer 5: stop
	}
	call := 0
	path := filepath.Join(t.TempDir(), "run.ckpt")
	opt := Options{
		Workers:    2,
		HashOnly:   false, // audit mode, so the 85% rung has something to drop
		MemBudget:  budget,
		Checkpoint: CheckpointOptions{Path: path, EveryLayers: 1000},
		MemSample: func() uint64 {
			s := samples[len(samples)-1]
			if call < len(samples) {
				s = samples[call]
			}
			call++
			return uint64(s)
		},
	}
	res := Run(m, invariant.Safety(), opt)
	if res.Stopped != StopMemBudget {
		t.Fatalf("stopped=%q, want mem-budget", res.Stopped)
	}
	if res.Complete {
		t.Fatal("budget-stopped run reported complete")
	}
	if !res.Degraded {
		t.Fatal("85% rung did not degrade audit mode")
	}
	// Emergency (70%) + final (100%) = exactly two snapshots; the 75%
	// repeat must not write a second emergency one.
	if res.Checkpoints != 2 {
		t.Fatalf("checkpoints=%d, want 2 (emergency + final)", res.Checkpoints)
	}
	snap, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Audit || !snap.Degraded {
		t.Fatalf("final snapshot audit=%v degraded=%v, want hash-only degraded", snap.Audit, snap.Degraded)
	}

	// Resume the degraded snapshot into the same (audit-configured)
	// options without a budget: it must continue hash-only and land on
	// the clean audit baseline's verdict and counts.
	want := Run(m, invariant.Safety(), Options{Workers: 2, HashOnly: false})
	res2 := Run(m, invariant.Safety(), Options{Workers: 2, HashOnly: false, Resume: snap})
	if !res2.Complete || !res2.Degraded {
		t.Fatalf("degraded resume: complete=%v degraded=%v err=%v", res2.Complete, res2.Degraded, res2.Err)
	}
	if res2.States != want.States || res2.Transitions != want.Transitions ||
		res2.Depth != want.Depth || res2.Deadlocks != want.Deadlocks {
		t.Fatalf("degraded resume diverged: got s=%d t=%d d=%d dl=%d, want s=%d t=%d d=%d dl=%d",
			res2.States, res2.Transitions, res2.Depth, res2.Deadlocks,
			want.States, want.Transitions, want.Depth, want.Deadlocks)
	}
}

// TestCapsReportStopReasons: every bounded stop names itself — the caps
// that predate the durability layer must be as explicit as the new
// degraded paths.
func TestCapsReportStopReasons(t *testing.T) {
	m := mustBuild(t, safeCfg())
	if res := Run(m, nil, Options{Workers: 2, HashOnly: true, MaxStates: 500}); res.Stopped != StopMaxStates || res.Complete {
		t.Fatalf("max-states: stopped=%q complete=%v", res.Stopped, res.Complete)
	}
	if res := Run(m, nil, Options{Workers: 2, HashOnly: true, MaxDepth: 5}); res.Stopped != StopMaxDepth || res.Complete {
		t.Fatalf("max-depth: stopped=%q complete=%v", res.Stopped, res.Complete)
	}
	if res := Run(m, nil, Options{Workers: 2, HashOnly: true}); res.Stopped != StopNone || !res.Complete {
		t.Fatalf("clean: stopped=%q complete=%v", res.Stopped, res.Complete)
	}
}

// TestCheckpointRoundTripThroughExplorer: a checkpoint of an audit+trace
// run — the most stateful configuration — must load and resume to the
// uninterrupted verdict.
func TestCheckpointRoundTripThroughExplorer(t *testing.T) {
	m := mustBuild(t, safeCfg())
	base := Options{HashOnly: false, Trace: true, Workers: 2, Shards: 4}

	want := Run(m, invariant.Safety(), base)
	if !want.Complete {
		t.Fatal("baseline incomplete")
	}

	path := filepath.Join(t.TempDir(), "run.ckpt")
	first := base
	first.Checkpoint = CheckpointOptions{Path: path, EveryLayers: 1}
	first.Context = cancelled()
	if res := Run(m, invariant.Safety(), first); res.Stopped != StopInterrupted {
		t.Fatalf("setup stopped %q", res.Stopped)
	}
	snap, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Audit {
		t.Fatal("audit snapshot lost its fingerprints")
	}
	second := base
	second.Resume = snap
	res := Run(m, invariant.Safety(), second)
	if !res.Complete {
		t.Fatalf("resume incomplete: %q %v", res.Stopped, res.Err)
	}
	if res.States != want.States || res.Transitions != want.Transitions ||
		res.Depth != want.Depth || res.HashCollisions != want.HashCollisions {
		t.Fatalf("audit resume diverged: got s=%d t=%d d=%d c=%d, want s=%d t=%d d=%d c=%d",
			res.States, res.Transitions, res.Depth, res.HashCollisions,
			want.States, want.Transitions, want.Depth, want.HashCollisions)
	}
}

// TestResumeParentCommitCheckpoint: testdata/pr15-safe-depth24.ckpt was
// written by the commit before the visited set became one table (map
// shards, 24 kill/resume rounds of safeCfg at one worker). The same chain
// on this engine must write the same bytes — the snapshot is canonical for
// the cut, so it cannot depend on how the set is laid out in memory — and
// the old file must resume here to the clean run's verdict.
func TestResumeParentCommitCheckpoint(t *testing.T) {
	const golden = "testdata/pr15-safe-depth24.ckpt"
	m := mustBuild(t, safeCfg())
	base := Options{Trace: true, HashOnly: true, Shards: 8, Workers: 1}

	path := filepath.Join(t.TempDir(), "run.ckpt")
	for round := 0; round < 24; round++ {
		opt := base
		opt.Checkpoint = CheckpointOptions{Path: path, EveryLayers: 1}
		if round > 0 {
			snap, err := checkpoint.Load(path)
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			opt.Resume = snap
		}
		opt.Context = cancelled()
		if res := Run(m, invariant.Safety(), opt); res.Stopped != StopInterrupted || res.Err != nil {
			t.Fatalf("round %d: stopped=%q err=%v", round, res.Stopped, res.Err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("checkpoint at the same cut differs from the parent commit's (%d vs %d bytes)", len(got), len(want))
	}

	snap, err := checkpoint.Load(golden)
	if err != nil {
		t.Fatal(err)
	}
	clean := Run(m, invariant.Safety(), base)
	for _, workers := range []int{1, 4} {
		opt := base
		opt.Workers, opt.Resume = workers, snap
		res := Run(m, invariant.Safety(), opt)
		if res.Err != nil {
			t.Fatalf("workers=%d: %v", workers, res.Err)
		}
		if got, want := verdictOf(res), verdictOf(clean); got != want {
			t.Fatalf("workers=%d: resumed from the parent's checkpoint:\n got %+v\nwant %+v", workers, got, want)
		}
	}
}
