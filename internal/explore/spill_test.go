package explore

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/gcmodel"
	"repro/internal/invariant"
	"repro/internal/storage"
)

// spillOpt returns options that force the spill rung to fire at the very
// first layer boundary: a 1-byte budget with a heap probe pinned far
// above it. With SpillDir set, a run that would otherwise die at the
// 100% rung instead parks its frontiers and visited records on disk and
// keeps going.
func spillOpt(t *testing.T, trace bool) Options {
	t.Helper()
	return Options{
		Workers:   2,
		Trace:     trace,
		HashOnly:  true,
		MemBudget: 1,
		MemSample: func() uint64 { return 1 << 40 },
		SpillDir:  t.TempDir(),
	}
}

// TestSpillCompletesUnderBudget is the degradation-rung acceptance test:
// a run whose budget is exhausted at every layer boundary — which
// without a spill directory stops at the 100% rung — completes
// exhaustively through the spill path, with a verdict identical to the
// unconstrained run's.
func TestSpillCompletesUnderBudget(t *testing.T) {
	m := mustBuild(t, safeCfg())
	for _, trace := range []bool{false, true} {
		name := "hash-only"
		if trace {
			name = "trace"
		}
		t.Run(name, func(t *testing.T) {
			want := Run(m, invariant.Safety(), Options{Workers: 2, Trace: trace, HashOnly: true})
			if !want.Complete {
				t.Fatalf("baseline incomplete: %+v", want)
			}

			// First confirm the budget is lethal without a spill dir.
			noSpill := spillOpt(t, trace)
			noSpill.SpillDir = ""
			dead := Run(m, invariant.Safety(), noSpill)
			if dead.Stopped != StopMemBudget {
				t.Fatalf("budget without spill dir stopped %q, want mem-budget", dead.Stopped)
			}

			res := Run(m, invariant.Safety(), spillOpt(t, trace))
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			if !res.Complete || res.Stopped != StopNone {
				t.Fatalf("spilled run incomplete: stopped=%q", res.Stopped)
			}
			if res.States != want.States || res.Transitions != want.Transitions ||
				res.Depth != want.Depth || res.Deadlocks != want.Deadlocks {
				t.Fatalf("spilled verdict diverged: got s=%d t=%d d=%d dl=%d, want s=%d t=%d d=%d dl=%d",
					res.States, res.Transitions, res.Depth, res.Deadlocks,
					want.States, want.Transitions, want.Depth, want.Deadlocks)
			}
			if !res.Spilled.Active || res.Spilled.Layers == 0 || res.Spilled.Bytes == 0 {
				t.Fatalf("spill rung did not do disk work: %+v", res.Spilled)
			}
			if res.CheckpointBytes == 0 {
				t.Fatalf("no visited records reached the checkpoint log: %+v", res.Spilled)
			}
		})
	}
}

// TestSpillViolationTrace: a counterexample found while the visited set
// lives on disk still materializes a full replayed trace — the parent
// chain is reconstructed from the flushed spill records, and replay
// itself cross-checks every hash along the path.
func TestSpillViolationTrace(t *testing.T) {
	cfg := baseCfg()
	cfg.Drop = gcmodel.AblationDrop("no_deletion_barrier", cfg.NMutators)
	m := mustBuild(t, cfg)
	opt := spillOpt(t, true)
	opt.MaxStates = 2_000_000
	res := Run(m, invariant.Safety(), opt)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Violation == nil {
		t.Fatalf("ablated model found no violation (stopped=%q, %d states)", res.Stopped, res.States)
	}
	if !res.Spilled.Active {
		t.Fatal("run never spilled — the test exercised nothing")
	}
	if len(res.Violation.Trace) == 0 {
		t.Fatal("spilled violation has no replayed counterexample")
	}
	if res.Violation.Invariant != "valid_refs_inv" {
		t.Fatalf("violated %s, want valid_refs_inv", res.Violation.Invariant)
	}
}

// TestSpillENOSPC: a disk that fills up mid-spill stops the run loudly
// with StopSpill and a named error — never a silent partial verdict —
// whether the full write parks a frontier layer or appends to the
// checkpoint log that holds the spilled records.
func TestSpillENOSPC(t *testing.T) {
	m := mustBuild(t, safeCfg())
	for _, tc := range []struct {
		name, path string
		skip       int    // matching ops let through first
		op         string // the op the fault hits
	}{
		{"park", "frontier-", 0, "create"},
		{"log", "run.ckpt", 4, "write"}, // past the log's base (create, write, sync, rename): an append
	} {
		t.Run(tc.name, func(t *testing.T) {
			ffs := storage.NewFaultFS(nil)
			ffs.FailPath(tc.path, storage.ENOSPC, tc.skip)
			opt := spillOpt(t, false)
			opt.FS = ffs
			res := Run(m, invariant.Safety(), opt)
			if res.Stopped != StopSpill {
				t.Fatalf("stopped=%q, want spill-failed", res.Stopped)
			}
			if res.Complete {
				t.Fatal("failed spill claimed a complete exploration")
			}
			if res.Err == nil || !strings.Contains(res.Err.Error(), "spill") {
				t.Fatalf("spill failure not named: %v", res.Err)
			}
			for _, op := range ffs.Trace() {
				if op.Injected != "" && (op.Name != tc.op || !strings.Contains(op.Path, tc.path)) {
					t.Fatalf("the fault hit %s %s, want %s of %s", op.Name, op.Path, tc.op, tc.path)
				}
			}
		})
	}
}

// TestSpillResumesFromSpilledCut: a spilled run keeps its checkpoint
// cadence, so every interruption leaves a cut of the spilled search that
// resumes — spilling again — to the unconstrained run's verdict at any
// worker count, and a violation found after such a resume replays its
// counterexample through the records the log holds.
func TestSpillResumesFromSpilledCut(t *testing.T) {
	m := mustBuild(t, safeCfg())
	want := Run(m, invariant.Safety(), Options{Workers: 2, Trace: true, HashOnly: true})
	path := filepath.Join(t.TempDir(), "run.ckpt")
	var snap *checkpoint.Snapshot
	for round := 0; round < 6; round++ {
		opt := spillOpt(t, true)
		opt.Checkpoint = CheckpointOptions{Path: path, EveryLayers: 1}
		opt.Resume, opt.Context = snap, cancelled()
		res := Run(m, invariant.Safety(), opt)
		if res.Stopped != StopInterrupted || res.Err != nil || !res.Spilled.Active {
			t.Fatalf("round %d: stopped=%q err=%v spilled=%v", round, res.Stopped, res.Err, res.Spilled.Active)
		}
		var err error
		if snap, err = checkpoint.Load(path); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		// The run expanded the layer at res.Depth and cut at the next.
		if snap.Depth != res.Depth+1 || snap.Depth != round+1 {
			t.Fatalf("round %d: the log's last cut is at depth %d, the run stopped after depth %d", round, snap.Depth, res.Depth)
		}
	}
	for _, workers := range []int{1, 4} {
		opt := spillOpt(t, true)
		opt.Workers, opt.Resume = workers, snap
		res := Run(m, invariant.Safety(), opt)
		if res.Err != nil || !res.Complete || !res.Spilled.Active {
			t.Fatalf("workers=%d: stopped=%q err=%v spilled=%v", workers, res.Stopped, res.Err, res.Spilled.Active)
		}
		if res.States != want.States || res.Transitions != want.Transitions ||
			res.Depth != want.Depth || res.Deadlocks != want.Deadlocks {
			t.Fatalf("workers=%d: resumed spilled run got s=%d t=%d d=%d dl=%d, want s=%d t=%d d=%d dl=%d",
				workers, res.States, res.Transitions, res.Depth, res.Deadlocks,
				want.States, want.Transitions, want.Depth, want.Deadlocks)
		}
	}

	t.Run("violation", func(t *testing.T) {
		cfg := baseCfg()
		cfg.Drop = gcmodel.AblationDrop("no_deletion_barrier", cfg.NMutators)
		m := mustBuild(t, cfg)
		path := filepath.Join(t.TempDir(), "run.ckpt")
		opt := spillOpt(t, true)
		opt.MaxStates = 2_000_000
		opt.Checkpoint = CheckpointOptions{Path: path, EveryLayers: 1}
		opt.Context = cancelled()
		if res := Run(m, invariant.Safety(), opt); res.Stopped != StopInterrupted || !res.Spilled.Active {
			t.Fatalf("setup: stopped=%q spilled=%v err=%v", res.Stopped, res.Spilled.Active, res.Err)
		}
		snap, err := checkpoint.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		opt = spillOpt(t, true)
		opt.MaxStates, opt.Resume = 2_000_000, snap
		res := Run(m, invariant.Safety(), opt)
		if res.Err != nil || res.Violation == nil || !res.Spilled.Active {
			t.Fatalf("resumed: violation=%v spilled=%v stopped=%q err=%v", res.Violation, res.Spilled.Active, res.Stopped, res.Err)
		}
		if len(res.Violation.Trace) != res.Violation.Depth {
			t.Fatalf("resumed violation at depth %d has a %d-step trace", res.Violation.Depth, len(res.Violation.Trace))
		}
	})
}

// TestSpillFingerprintNeutral: SpillDir and FS change only the
// representation of the search, never the verdict, so they must not
// perturb the options fingerprint that keys checkpoints and the verdict
// cache.
func TestSpillFingerprintNeutral(t *testing.T) {
	m := mustBuild(t, safeCfg())
	base := Options{Workers: 2, Trace: true, HashOnly: true}
	fpA, _ := OptionsFingerprint(m, invariant.Safety(), base)
	spilled := base
	spilled.SpillDir = t.TempDir()
	spilled.FS = storage.NewFaultFS(nil)
	fpB, _ := OptionsFingerprint(m, invariant.Safety(), spilled)
	if fpA != fpB {
		t.Fatalf("spill options perturbed the fingerprint: %016x vs %016x", fpA, fpB)
	}
}
