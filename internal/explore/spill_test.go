package explore

import (
	"fmt"
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
// above it. With Spill set and a checkpoint log, a run that would
// otherwise die at the 100% rung instead moves its visited records to the
// log, keeps its frontiers encoded, and keeps going.
func spillOpt(t *testing.T, trace bool) Options {
	t.Helper()
	return Options{
		Workers:    2,
		Trace:      trace,
		HashOnly:   true,
		MemBudget:  1,
		MemSample:  func() uint64 { return 1 << 40 },
		Spill:      true,
		Checkpoint: CheckpointOptions{Path: filepath.Join(t.TempDir(), "run.ckpt")},
	}
}

// TestSpillCompletesUnderBudget is the degradation-rung acceptance test:
// a run whose budget is exhausted at every layer boundary — which
// without the spill stops at the 100% rung — completes exhaustively
// through the spill path, with a verdict identical to the unconstrained
// run's. Spilled layers expand in hash order, not in the order they were
// built, so the counts must not move with that order at any worker count,
// reduced or not, with traces or without.
func TestSpillCompletesUnderBudget(t *testing.T) {
	m := mustBuild(t, safeCfg())
	// The counts depend on neither the worker count nor the traces.
	want := map[bool]Result{}
	for _, reduce := range []bool{false, true} {
		want[reduce] = Run(m, invariant.Safety(), Options{Workers: 2, Reduce: reduce, HashOnly: true})
		if !want[reduce].Complete {
			t.Fatalf("reduce=%v: baseline incomplete: %+v", reduce, want[reduce])
		}
	}
	for _, trace := range []bool{false, true} {
		name := "hash-only"
		if trace {
			name = "trace"
		}
		t.Run(name, func(t *testing.T) {
			for _, tc := range []struct {
				workers int
				reduce  bool
			}{{1, false}, {2, false}, {1, true}, {2, true}} {
				t.Run(fmt.Sprintf("workers=%d/reduce=%v", tc.workers, tc.reduce), func(t *testing.T) {
					opt := spillOpt(t, trace)
					opt.Workers, opt.Reduce = tc.workers, tc.reduce
					// First confirm the budget is lethal without the spill, and
					// that the spill does not arm without a checkpoint log.
					for _, unarmed := range []func(*Options){
						func(o *Options) { o.Spill = false },
						func(o *Options) { o.Checkpoint.Path = "" },
					} {
						dead := opt
						unarmed(&dead)
						if r := Run(m, invariant.Safety(), dead); r.Stopped != StopMemBudget || r.Spilled.Active {
							t.Fatalf("unarmed spill stopped %q (spilled %v), want mem-budget", r.Stopped, r.Spilled.Active)
						}
					}

					res := Run(m, invariant.Safety(), opt)
					if res.Err != nil {
						t.Fatal(res.Err)
					}
					if !res.Complete || res.Stopped != StopNone {
						t.Fatalf("spilled run incomplete: stopped=%q", res.Stopped)
					}
					w := want[tc.reduce]
					if res.States != w.States || res.Transitions != w.Transitions ||
						res.Depth != w.Depth || res.Deadlocks != w.Deadlocks || res.AmpleStates != w.AmpleStates {
						t.Fatalf("spilled verdict diverged: got s=%d t=%d d=%d dl=%d a=%d, want s=%d t=%d d=%d dl=%d a=%d",
							res.States, res.Transitions, res.Depth, res.Deadlocks, res.AmpleStates,
							w.States, w.Transitions, w.Depth, w.Deadlocks, w.AmpleStates)
					}
					// The rung fired at the first boundary: every later layer,
					// depths 1 to res.Depth, was expanded from its encoding.
					if !res.Spilled.Active || res.Spilled.Layers != res.Depth {
						t.Fatalf("spill rung expanded %d of %d layers from the compact frontier", res.Spilled.Layers, res.Depth)
					}
					if res.CheckpointBytes == 0 {
						t.Fatalf("no visited records reached the checkpoint log: %+v", res.Spilled)
					}
				})
			}
		})
	}
}

// TestSpillEncodesFrontierOnce: at a spilled boundary the next layer is
// encoded once, and that encoding is both the cut's frontier section and
// the layer the workers expand. With a cut at every boundary, every state
// but the initial one (which is in no next layer) is encoded exactly once.
func TestSpillEncodesFrontierOnce(t *testing.T) {
	m := mustBuild(t, safeCfg())
	opt := spillOpt(t, true)
	opt.Checkpoint.EveryLayers = 1
	e := newExplorer(m, m.Initial(), invariant.Safety(), opt)
	res := e.run()
	if !res.Complete || res.Err != nil || !res.Spilled.Active {
		t.Fatalf("stopped=%q err=%v spilled=%+v", res.Stopped, res.Err, res.Spilled)
	}
	if res.Checkpoints != res.Depth {
		t.Fatalf("%d cuts in a run of depth %d: the test needs one per boundary", res.Checkpoints, res.Depth)
	}
	if e.encoded != res.States-1 {
		t.Fatalf("encoded %d frontier states, want %d (each state but the initial once)", e.encoded, res.States-1)
	}
}

// TestSpillWritesOneFile: the spill's only file is the checkpoint log.
// Every create, write, sync, rename and remove of a spilled run names the
// log or its temp file.
func TestSpillWritesOneFile(t *testing.T) {
	m := mustBuild(t, safeCfg())
	ffs := storage.NewFaultFS(nil)
	opt := spillOpt(t, true)
	opt.FS = ffs
	res := Run(m, invariant.Safety(), opt)
	if !res.Complete || res.Err != nil || !res.Spilled.Active {
		t.Fatalf("stopped=%q err=%v spilled=%+v", res.Stopped, res.Err, res.Spilled)
	}
	writes := 0
	for _, op := range ffs.Trace() {
		switch op.Name {
		case "create", "write", "sync", "rename", "remove":
			writes++
			if op.Path != opt.Checkpoint.Path && op.Path != opt.Checkpoint.Path+".tmp" {
				t.Errorf("op %d: %s %s, not the checkpoint log", op.Index, op.Name, op.Path)
			}
		}
	}
	if writes == 0 {
		t.Fatal("the spilled run wrote nothing through the FS")
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
// when the full write appends to the checkpoint log that holds the
// spilled records.
func TestSpillENOSPC(t *testing.T) {
	m := mustBuild(t, safeCfg())
	t.Run("log", func(t *testing.T) {
		ffs := storage.NewFaultFS(nil)
		// Past the log's base (create, write, sync, rename): an append.
		ffs.FailPath("run.ckpt", storage.ENOSPC, 4)
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
			if op.Injected != "" && (op.Name != "write" || !strings.Contains(op.Path, "run.ckpt")) {
				t.Fatalf("the fault hit %s %s, want a write of the log", op.Name, op.Path)
			}
		}
	})
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

// TestSpillFingerprintNeutral: Spill and FS change only the
// representation of the search, never the verdict, so they must not
// perturb the options fingerprint that keys checkpoints and the verdict
// cache.
func TestSpillFingerprintNeutral(t *testing.T) {
	m := mustBuild(t, safeCfg())
	base := Options{Workers: 2, Trace: true, HashOnly: true}
	fpA, _ := OptionsFingerprint(m, invariant.Safety(), base)
	spilled := base
	spilled.Spill = true
	spilled.FS = storage.NewFaultFS(nil)
	fpB, _ := OptionsFingerprint(m, invariant.Safety(), spilled)
	if fpA != fpB {
		t.Fatalf("spill options perturbed the fingerprint: %016x vs %016x", fpA, fpB)
	}
}
