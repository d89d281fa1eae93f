package explore

import (
	"strings"
	"testing"

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
			if trace && res.Spilled.States == 0 {
				t.Fatalf("trace mode flushed no visited records: %+v", res.Spilled)
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
// with StopSpill and a named error — never a silent partial verdict.
func TestSpillENOSPC(t *testing.T) {
	m := mustBuild(t, safeCfg())
	ffs := storage.NewFaultFS(nil)
	ffs.FailPath("frontier-", storage.ENOSPC, 0)
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
