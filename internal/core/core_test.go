package core

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/explore"
	"repro/internal/gcmodel"
)

func TestPresetsValidate(t *testing.T) {
	for name, cfg := range map[string]ModelConfig{
		"tiny":        TinyConfig(),
		"alloc":       AllocConfig(),
		"two-mutator": TwoMutatorConfig(),
		"chain":       ChainConfig(),
	} {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("preset %s invalid: %v", name, err)
		}
	}
}

func TestVerifyRejectsInvalidConfig(t *testing.T) {
	if _, err := Verify(ModelConfig{}, VerifyOptions{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestVerifyBoundedRunHoldsOnSafeModel(t *testing.T) {
	res, err := Verify(TinyConfig(), VerifyOptions{MaxStates: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.NoViolation() {
		t.Fatalf("violation:\n%s", res.RenderViolation())
	}
	if res.Complete {
		t.Fatal("30k-state cap should not exhaust the tiny config")
	}
	// A capped run must never claim the property holds: Holds demands a
	// complete exploration.
	if res.Holds() {
		t.Fatal("Holds() true on an incomplete (capped) run")
	}
	if res.Status() != "no-violation" {
		t.Fatalf("Status() = %q on a clean capped run, want no-violation", res.Status())
	}
	if res.RenderViolation() != "" {
		t.Fatal("RenderViolation non-empty without violation")
	}
}

func TestVerifyFindsAblationViolationWithTrace(t *testing.T) {
	cfg := TinyConfig()
	cfg.Drop = gcmodel.AblationDrop("no_deletion_barrier", cfg.NMutators)
	res, err := Verify(cfg, VerifyOptions{HeadlineOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds() {
		t.Fatal("ablated model verified")
	}
	rendered := res.RenderViolation()
	if !strings.Contains(rendered, "valid_refs_inv") || !strings.Contains(rendered, "counterexample") {
		t.Fatalf("violation rendering incomplete:\n%s", rendered)
	}
}

// livenessTestConfig is TinyConfig shrunk (stores only, budget 1) so
// the liveness tests stay in test time.
func livenessTestConfig() ModelConfig {
	cfg := TinyConfig()
	cfg.OpBudget = 1
	cfg.MaxBuf = 1
	cfg.DisableLoad = true
	cfg.DisableDiscard = true
	return cfg
}

func TestVerifyLivenessCleanModel(t *testing.T) {
	res, err := Verify(livenessTestConfig(), VerifyOptions{Liveness: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Liveness == nil {
		t.Fatal("liveness result missing")
	}
	if !res.Holds() {
		t.Fatalf("clean model violated: %+v", res.Liveness.Violations())
	}
	// The liveness graph is the relation the safety checker just
	// walked: the two must agree exactly.
	if res.Liveness.States != res.States ||
		res.Liveness.Transitions != res.Transitions ||
		res.Liveness.Depth != res.Depth {
		t.Fatalf("liveness graph (%d states, %d transitions, depth %d) disagrees with safety exploration (%d, %d, %d)",
			res.Liveness.States, res.Liveness.Transitions, res.Liveness.Depth,
			res.States, res.Transitions, res.Depth)
	}
}

func TestVerifyLivenessAblatedModel(t *testing.T) {
	cfg := livenessTestConfig()
	cfg.Drop = gcmodel.AblationDrop("mute_handshake", cfg.NMutators)
	res, err := Verify(cfg, VerifyOptions{Liveness: true, LivenessProps: []string{"hs-ack-m0"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("unexpected safety violation:\n%s", res.RenderViolation())
	}
	if res.Holds() {
		t.Fatal("muted-handshake model should violate hs-ack-m0")
	}
	vs := res.Liveness.Violations()
	if len(vs) != 1 || vs[0].Name != "hs-ack-m0" || vs[0].Counterexample == nil {
		t.Fatalf("expected a single hs-ack-m0 counterexample, got %+v", vs)
	}
}

// progressLog collects a run's progress reports. The engine serializes
// the callback, so no lock is needed.
type progressLog []Progress

func (l *progressLog) add(p Progress) { *l = append(*l, p) }

// restarts counts the reports whose state count fell: each one is a
// second exploration starting over.
func (l progressLog) restarts() int {
	n := 0
	for i := 1; i < len(l); i++ {
		if l[i].States <= l[i-1].States {
			n++
		}
	}
	return n
}

// TestLivenessExploresOnce: when the safety pass walks the full relation
// from the initial state, a Liveness run is that one exploration. Its
// progress stream climbs at the requested cadence to the final count and
// never starts over, and the liveness graph is the safety pass's —
// on complete and on capped runs alike.
func TestLivenessExploresOnce(t *testing.T) {
	const every = 500
	for name, opt := range map[string]VerifyOptions{
		"complete":   {},
		"max-depth":  {MaxDepth: 100},
		"max-states": {MaxStates: 4000},
		"validated":  {ValidateEffects: true, MaxDepth: 100},
	} {
		t.Run(name, func(t *testing.T) {
			var log progressLog
			opt.Liveness = true
			res, err := verify(livenessTestConfig(), opt, JobRun{Progress: log.add, ProgressEvery: every})
			if err != nil {
				t.Fatal(err)
			}
			l := res.Liveness
			if l == nil {
				t.Fatal("liveness result missing")
			}
			if l.States != res.States || l.Transitions != res.Transitions || l.Depth != res.Depth ||
				l.Complete != res.Complete || l.Stopped != res.Stopped {
				t.Errorf("liveness graph %d/%d/%d complete=%v stopped=%q, safety pass %d/%d/%d complete=%v stopped=%q",
					l.States, l.Transitions, l.Depth, l.Complete, l.Stopped,
					res.States, res.Transitions, res.Depth, res.Complete, res.Stopped)
			}
			if res.Complete != (name == "complete") {
				t.Errorf("complete=%v", res.Complete)
			}
			if !l.Holds() {
				t.Errorf("clean model violated: %+v", l.Violations())
			}
			if res.Effects != nil {
				if events, _ := res.Effects.Stats(); int(events) != res.Transitions {
					t.Errorf("validator saw %d transitions of %d", events, res.Transitions)
				}
			}
			if len(log) < res.States/every/2 || log.restarts() != 0 {
				t.Fatalf("%d reports for %d states, %d restarts", len(log), res.States, log.restarts())
			}
			last := 0
			for _, p := range log {
				if p.States-last < every || p.States > res.States {
					t.Fatalf("report at %d states after one at %d (cadence %d, final %d)", p.States, last, every, res.States)
				}
				last = p.States
			}
		})
	}
}

// TestLivenessFallbackExploresUnreduced: a reduced or resumed safety pass
// does not walk the graph the cycle search needs, so the liveness pass
// explores the unreduced relation itself — seen as exactly one restart of
// the progress stream — and reports that graph's counts.
func TestLivenessFallbackExploresUnreduced(t *testing.T) {
	cfg := livenessTestConfig()
	full, err := Verify(cfg, VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	check := func(t *testing.T, res VerifyResult, log progressLog) {
		t.Helper()
		l := res.Liveness
		if l == nil || !res.Holds() {
			t.Fatalf("liveness=%v status=%s", l, res.Status())
		}
		if l.States != full.States || l.Transitions != full.Transitions || l.Depth != full.Depth || !l.Complete {
			t.Errorf("liveness graph %d/%d/%d complete=%v, unreduced relation %d/%d/%d",
				l.States, l.Transitions, l.Depth, l.Complete, full.States, full.Transitions, full.Depth)
		}
		if log.restarts() != 1 {
			t.Errorf("%d progress restarts, want the liveness pass's one", log.restarts())
		}
	}

	t.Run("reduced", func(t *testing.T) {
		var log progressLog
		res, err := verify(cfg, VerifyOptions{Liveness: true, Reduce: true}, JobRun{Progress: log.add, ProgressEvery: 500})
		if err != nil {
			t.Fatal(err)
		}
		if res.States >= full.States {
			t.Fatalf("reduction visited %d of %d states", res.States, full.States)
		}
		check(t, res, log)
	})

	t.Run("resumed", func(t *testing.T) {
		ckpt := filepath.Join(t.TempDir(), "run.ckpt")
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		opt := VerifyOptions{Liveness: true}
		run := JobRun{CheckpointPath: ckpt, ProgressEvery: 500, Context: ctx}
		run.Progress = func(p Progress) {
			if p.States > full.States/3 {
				cancel()
			}
		}
		cut, err := verify(cfg, opt, run)
		if err != nil {
			t.Fatal(err)
		}
		if cut.Stopped != explore.StopInterrupted || cut.Liveness != nil {
			t.Fatalf("first run: stopped=%q liveness=%v", cut.Stopped, cut.Liveness)
		}
		// The first run carried the recorder and the resumed one does not:
		// the checkpoint must not care.
		var log progressLog
		run.Context, run.Resume, run.Progress = nil, ckpt, log.add
		res, err := verify(cfg, opt, run)
		if err != nil {
			t.Fatal(err)
		}
		if res.States != full.States || res.Transitions != full.Transitions {
			t.Fatalf("resumed safety pass %d/%d, want %d/%d", res.States, res.Transitions, full.States, full.Transitions)
		}
		check(t, res, log)
	})
}

func TestVerifyLivenessRejectsUnknownProperty(t *testing.T) {
	_, err := Verify(livenessTestConfig(), VerifyOptions{Liveness: true, LivenessProps: []string{"bogus"}})
	if err == nil || !strings.Contains(err.Error(), "unknown property") {
		t.Fatalf("expected unknown-property error, got %v", err)
	}
}

// TestAllocBudgetZeroVerifies (E10): tiny with allocation and the op
// budget off, store buffers bounded at 1, is explored exhaustively and
// every invariant holds at every reachable state.
func TestAllocBudgetZeroVerifies(t *testing.T) {
	verifyPinned(t, `{"preset":"alloc","bounds":{"refs":2,"budget":0,"maxbuf":1}}`, 1_627_664, 4_701_322, 223)
}

// TestTinyUnboundedBufferVerifies: tiny with no store-buffer bound
// reaches exactly tiny's own counts, so no reachable state of tiny
// holds more in a buffer than tiny's bound of 2 allows. A model change
// that makes the buffer bound bind moves these counts.
func TestTinyUnboundedBufferVerifies(t *testing.T) {
	verifyPinned(t, `{"preset":"tiny","bounds":{"maxbuf":0}}`, 997_438, 2_795_677, 258)
}

// TestTinyTwoFieldsVerifies: tiny with two fields per object, a buffer
// bound of 1 and an op budget of 1 — the first pinned instance whose
// objects have more than one field.
func TestTinyTwoFieldsVerifies(t *testing.T) {
	verifyPinned(t, `{"preset":"tiny","bounds":{"fields":2,"maxbuf":1,"budget":1}}`, 3_435_821, 7_669_434, 331)
}

// verifyPinned runs the JSON job spec exhaustively and requires it
// VERIFIED with exactly these counts. The runs take seconds each, so
// they skip under -short and under the race detector.
func verifyPinned(t *testing.T, specJSON string, states, transitions, depth int) {
	t.Helper()
	if raceEnabled || testing.Short() {
		t.Skip("exhaustive multi-second run")
	}
	var spec JobSpec
	if err := DecodeStrict(strings.NewReader(specJSON), &spec); err != nil {
		t.Fatal(err)
	}
	res, _, err := RunJob(spec, JobRun{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds() {
		t.Fatalf("status %s:\n%s", res.Status(), res.RenderViolation())
	}
	if res.States != states || res.Transitions != transitions || res.Depth != depth {
		t.Fatalf("%d states, %d transitions, depth %d; want %d, %d, %d",
			res.States, res.Transitions, res.Depth, states, transitions, depth)
	}
}

// TestLivenessFallbackNeverSpills: a liveness pass that explores on its
// own writes no checkpoint, so the spill rung cannot arm there even when
// the safety pass spilled. Under a budget the spill carried the safety
// pass through, the liveness pass stops incomplete, and the run does not
// hold.
func TestLivenessFallbackNeverSpills(t *testing.T) {
	spec := JobSpec{Preset: "tiny", Options: JobOptions{Reduce: true, Liveness: true, Spill: true, MemBudgetMiB: 1}}
	res, _, err := RunJob(spec, JobRun{CheckpointPath: filepath.Join(t.TempDir(), "run.ckpt")})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || !res.Spilled.Active {
		t.Fatalf("safety pass: stopped=%q spilled=%v, want a complete spilled run", res.Stopped, res.Spilled.Active)
	}
	l := res.Liveness
	if l == nil {
		t.Fatal("no liveness result")
	}
	if l.Complete || l.Stopped != explore.StopMemBudget {
		t.Fatalf("liveness pass: complete=%v stopped=%q, want a mem-budget stop", l.Complete, l.Stopped)
	}
	if res.Holds() || res.Status() == "verified" {
		t.Fatalf("an incomplete liveness pass holds: status %s", res.Status())
	}
}
