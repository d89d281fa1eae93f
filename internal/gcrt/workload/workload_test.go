package workload

import (
	"reflect"
	"testing"

	"repro/internal/gcrt"
)

// TestOpsDeterministic: op generation is a pure function of
// (seed, shape, mutator id) — the property that makes a failing
// workload replayable.
func TestOpsDeterministic(t *testing.T) {
	for _, shape := range Shapes {
		cfg := Config{Shape: shape, Seed: 42, Fields: 4}
		a := Ops(cfg, 1, 500)
		b := Ops(cfg, 1, 500)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%v: identical (seed,id) produced different streams", shape)
		}
		c := Ops(Config{Shape: shape, Seed: 43, Fields: 4}, 1, 500)
		if reflect.DeepEqual(a, c) {
			t.Fatalf("%v: different seeds produced identical streams", shape)
		}
		d := Ops(cfg, 2, 500)
		if reflect.DeepEqual(a, d) {
			t.Fatalf("%v: different mutators produced identical streams", shape)
		}
	}
}

// TestProgramsExecutable: every generated program runs to completion
// (registers line up, no panics) for every shape.
func TestProgramsExecutable(t *testing.T) {
	for _, shape := range Shapes {
		shape := shape
		t.Run(shape.String(), func(t *testing.T) {
			res := Run(Config{
				Shape: shape, Mutators: 2, Seed: 7,
				Cycles: 3, OpsPerMutator: 512,
				Oracle: gcrt.OracleOptions{SampleEvery: 1},
			})
			if res.Ops == 0 {
				t.Fatal("workload executed zero operations")
			}
			if !res.Clean() {
				t.Fatalf("clean config produced findings: %v (faults=%d)",
					res.Details, res.Faults)
			}
		})
	}
}

// TestShrinkMinimizes: the greedy shrinker reduces a failing program to the smallest one preserving the
// predicate — here, "contains an OpUnlink" shrinks to exactly one op.
func TestShrinkMinimizes(t *testing.T) {
	cfg := Config{Shape: Churn, Mutators: 3, Seed: 11, Fields: 2, OpsPerMutator: 200}
	prog := NewProgram(cfg)

	hasUnlink := func(p [][]Op) bool {
		for _, stream := range p {
			for _, op := range stream {
				if op.Kind == OpUnlink {
					return true
				}
			}
		}
		return false
	}
	if !hasUnlink(prog) {
		t.Fatal("generated churn program has no unlinks")
	}

	small := Shrink(prog, hasUnlink)
	total := 0
	for _, stream := range small {
		total += len(stream)
	}
	if len(small) != 1 || total != 1 {
		t.Fatalf("shrink left %d mutators / %d ops, want 1/1", len(small), total)
	}
	if small[0][0].Kind != OpUnlink {
		t.Fatalf("shrink kept %v, want OpUnlink", small[0][0].Kind)
	}

	// Determinism: shrinking the same program with the same predicate
	// lands on the same minimum.
	again := Shrink(NewProgram(cfg), hasUnlink)
	if !reflect.DeepEqual(small, again) {
		t.Fatal("shrink is not deterministic")
	}

	// A shrunk (even empty-stream) program must still be runnable.
	res := RunProgram(Config{Shape: Churn, Cycles: 2, Oracle: gcrt.OracleOptions{SampleEvery: 1}}, small)
	if !res.Clean() {
		t.Fatalf("shrunk clean program produced findings: %v", res.Details)
	}
}

// TestCleanSoakZeroFindings is the honesty baseline: the un-ablated
// runtime survives a randomized multi-shape soak of >= 10 full
// collect+audit cycles with every store checked and zero findings.
// (CI runs this under -race; see the gcrt-stress job.)
func TestCleanSoakZeroFindings(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, shape := range Shapes {
		for _, seed := range seeds {
			shape, seed := shape, seed
			t.Run(shape.String()+"/seed="+string(rune('0'+seed)), func(t *testing.T) {
				res := Run(Config{
					Shape:    shape,
					Mutators: 4,
					Seed:     seed,
					Cycles:   10,
					Oracle:   gcrt.OracleOptions{SampleEvery: 1},
				})
				if !res.Clean() {
					t.Fatalf("findings=%d faults=%d byCheck=%v details=%v",
						res.Findings, res.Faults, res.ByCheck, res.Details)
				}
				if res.Checks == 0 {
					t.Fatal("oracle ran zero checks — vacuous pass")
				}
				if res.Stats.Cycles < 10 {
					t.Fatalf("only %d collection cycles ran", res.Stats.Cycles)
				}
			})
		}
	}
}

// TestAblationsDetected is the E11 table at runtime scale: each
// protocol ablation must be flagged by the oracle within a bounded
// number of cycles, under at least two workload shapes.
func TestAblationsDetected(t *testing.T) {
	ablations := []struct {
		name   string
		opt    gcrt.Options
		checks []string // at least one of these must fire
	}{
		{
			name: "NoDeletionBarrier",
			opt:  gcrt.Options{NoDeletionBarrier: true},
			checks: []string{
				gcrt.CheckMarkedDeletions,
				gcrt.CheckDanglingRoot, gcrt.CheckDanglingEdge,
			},
		},
		{
			name: "NoInsertionBarrier",
			opt:  gcrt.Options{NoInsertionBarrier: true},
			checks: []string{
				gcrt.CheckMarkedInsertions,
				gcrt.CheckDanglingRoot, gcrt.CheckDanglingEdge,
			},
		},
		{
			name: "AllocWhite",
			opt:  gcrt.Options{AllocWhite: true},
			checks: []string{
				gcrt.CheckMarkSense,
				gcrt.CheckDanglingRoot, gcrt.CheckDanglingEdge,
			},
		},
	}
	shapes := []Shape{DeepList, Churn}

	for _, ab := range ablations {
		for _, shape := range shapes {
			ab, shape := ab, shape
			t.Run(ab.name+"/"+shape.String(), func(t *testing.T) {
				res := Run(Config{
					Shape:    shape,
					Mutators: 4,
					Seed:     99,
					Cycles:   10,
					Runtime:  ab.opt,
					Oracle:   gcrt.OracleOptions{SampleEvery: 1},
				})
				if res.Findings == 0 {
					t.Fatalf("oracle missed the %s ablation (checks=%d faults=%d)",
						ab.name, res.Checks, res.Faults)
				}
				for _, c := range ab.checks {
					if res.ByCheck[c] > 0 {
						return // expected signature found
					}
				}
				t.Fatalf("findings %v lack the %s signature (want one of %v)",
					res.ByCheck, ab.name, ab.checks)
			})
		}
	}
}
