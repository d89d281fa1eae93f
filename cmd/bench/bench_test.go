package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/invariant"
)

// Miniatures: the six workloads, depth-capped or shortened so the whole
// file runs in seconds. They exercise every code path of the full-size
// workloads, including the known-answer checks.
var (
	miniSafetyTiny = checkerCase{
		name:        "safety-tiny",
		spec:        core.JobSpec{Preset: "tiny", Options: core.JobOptions{MaxDepth: 24}},
		want:        checkerAnswer{"no-violation", 9402, 23145, 24, 0},
		shadowDepth: 18,
	}
	miniSafety2MutPOR = checkerCase{
		name:        "safety-2mut-por",
		spec:        core.JobSpec{Preset: "two-mutator", Options: core.JobOptions{Reduce: true, MaxDepth: 30}},
		want:        checkerAnswer{"no-violation", 12798, 33455, 30, 0},
		shadowDepth: 24,
	}
	miniLivenessTinyB1 = checkerCase{
		name:        "liveness-tiny-b1",
		spec:        core.JobSpec{Preset: "tiny", Options: core.JobOptions{Liveness: true, MaxDepth: 24}},
		tweak:       livenessTinyB1.tweak,
		want:        checkerAnswer{"no-violation", 1170, 0, 0, 4},
		shadowDepth: 18,
	}
	miniCorpus = corpusCase{
		presets:   []corpusPreset{{"tiny", 12}, {"two-mutator", 10}},
		hitRounds: 3,
		cex:       core.JobSpec{Preset: "alloc", Ablations: core.Ablations{AllocWhite: true}, Options: core.JobOptions{MaxDepth: 4}},
	}
	miniLiveGraph = rtShape{name: "rt-livegraph", slots: 1 << 14, fields: 2, listNodes: 1000}
)

func testEnv(t *testing.T, trace bool) *env {
	dir := t.TempDir()
	return &env{seed: 1, seconds: 1, trace: trace, dir: dir, tracePath: filepath.Join(dir, "trace.ndjson")}
}

// TestMiniatures runs all six workloads in miniature, traced and not,
// and checks that each reports exactly the declared metrics and no
// failed operation.
func TestMiniatures(t *testing.T) {
	runs := []struct {
		name string
		run  func(*env) (*report, error)
	}{
		{"safety-tiny", func(e *env) (*report, error) { return runChecker(e, miniSafetyTiny) }},
		{"safety-2mut-por", func(e *env) (*report, error) { return runChecker(e, miniSafety2MutPOR) }},
		{"liveness-tiny-b1", func(e *env) (*report, error) { return runChecker(e, miniLivenessTinyB1) }},
		{"svc-corpus", func(e *env) (*report, error) { return runService(e, miniCorpus) }},
		{"rt-churn", func(e *env) (*report, error) { return runRuntime(e, churnShape) }},
		{"rt-livegraph", func(e *env) (*report, error) { return runRuntime(e, miniLiveGraph) }},
	}
	if len(runs) != len(workloads) {
		t.Fatalf("%d miniatures for %d workloads", len(runs), len(workloads))
	}
	for i, r := range runs {
		if r.name != workloads[i].name {
			t.Errorf("miniature %d is %s, workload %d is %s", i, r.name, i, workloads[i].name)
		}
		for _, trace := range []bool{false, true} {
			e := testEnv(t, trace)
			rep, err := r.run(e)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", r.name, trace, err)
			}
			if rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: attempted=%d failed=%d: %v", r.name, trace, rep.Attempted, rep.Failed, rep.Failures)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(rep.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics reported, %d declared", r.name, trace, len(rep.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := rep.Metrics[d.Name]
				if !ok {
					t.Errorf("%s trace=%v: declared metric %s not reported", r.name, trace, d.Name)
				}
				if !trace && !(v > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", r.name, d.Name, v)
				}
			}
			if _, err := resultJSON(rep, trace); err != nil {
				t.Errorf("%s trace=%v: %v", r.name, trace, err)
			}
			if trace {
				if fi, err := os.Stat(e.tracePath); err != nil || fi.Size() == 0 {
					t.Errorf("%s: no trace written: %v", r.name, err)
				}
			}
		}
	}
}

// TestShadowMatchesExplore: the per-layer trace is only worth reading if
// its BFS is the checker's. Same cap, same counts, with and without the
// partial-order reduction.
func TestShadowMatchesExplore(t *testing.T) {
	for _, c := range []checkerCase{miniSafetyTiny, miniSafety2MutPOR} {
		m, _, _, err := c.build()
		if err != nil {
			t.Fatal(err)
		}
		const depth = 28
		reduce := c.spec.Options.Reduce
		sh := shadowExplore(m, invariant.All(), shadowOptions{reduce: reduce, maxDepth: depth}, newTracer(time.Now(), 0))
		ex := explore.Run(m, invariant.All(), explore.Options{MaxDepth: depth, Trace: true, HashOnly: true, Reduce: reduce})
		if sh.states != ex.States || sh.transitions != ex.Transitions || sh.depth != ex.Depth || int(sh.ampleStates) != ex.AmpleStates || int(sh.deadlocks) != ex.Deadlocks {
			t.Errorf("%s: shadow %d/%d/%d ample=%d deadlocks=%d, explore.Run %d/%d/%d ample=%d deadlocks=%d", c.name,
				sh.states, sh.transitions, sh.depth, sh.ampleStates, sh.deadlocks, ex.States, ex.Transitions, ex.Depth, ex.AmpleStates, ex.Deadlocks)
		}
		if len(sh.violations) != 0 {
			t.Errorf("%s: shadow found violations on a clean model: %v", c.name, sh.violations)
		}
	}
}

// TestWrongAnswerFails is the known-answer check's negative control: one
// deliberately wrong expected count must fail safety-tiny.
func TestWrongAnswerFails(t *testing.T) {
	c := miniSafetyTiny
	c.want.states++
	rep, err := runChecker(testEnv(t, false), c)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 1 {
		t.Fatalf("wrong expected state count: failed=%d, want 1: %v", rep.Failed, rep.Failures)
	}
	line, err := resultJSON(rep, false)
	if err != nil {
		t.Fatal(err)
	}
	var got resultLine
	if err := json.Unmarshal(line, &got); err != nil || got.Correct || got.Failed != 1 {
		t.Fatalf("result line %s: correct=%v failed=%d (%v)", line, got.Correct, got.Failed, err)
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// TestBenchmarkJSONMatches: BENCHMARK.json and the tables in this package
// declare the same workloads and metrics — names, units, directions and
// bounds — and every name and unit fits the contract's character set.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if want := []string{"go", "run", "./cmd/bench"}; !reflect.DeepEqual(f.Command, want) {
		t.Errorf("command %v, want %v", f.Command, want)
	}
	if want := []string{"cmd/bench"}; !reflect.DeepEqual(f.Paths, want) {
		t.Errorf("paths %v, want %v", f.Paths, want)
	}
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, -seconds defaults to %d", f.RunSeconds, defaultSeconds)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the contract's character set", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the suite", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the suite has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	compare := func(kind string, got []benchmarkMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d declared", len(got), kind, len(want))
		}
		for i, g := range got {
			w := want[i]
			name(g.Name)
			if !unitRE.MatchString(g.Unit) {
				t.Errorf("%s: unit %q is outside the contract's character set", g.Name, g.Unit)
			}
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s] %s, declared %s [%s] %s", kind, i, g.Name, g.Unit, g.Better, w.Name, w.Unit, w.Better)
			}
			if g.Better != "lower" && g.Better != "higher" {
				t.Errorf("%s: better=%q", g.Name, g.Better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != w.Bound || *g.Bound <= 0 || *g.Bound > 0.25):
				t.Errorf("%s: bound %v in BENCHMARK.json, %v declared (0 < bound <= 0.25)", g.Name, g.Bound, w.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", g.Name)
			}
		}
	}
	compare("end-to-end", f.EndToEnd, endToEnd, true)
	compare("per-layer", f.PerLayer, perLayer, false)
	if !seen["setup_s"] {
		t.Error("setup_s is not declared")
	}
	for _, n := range exactCounts {
		if !seen[n] {
			t.Errorf("exact count %s is not a declared metric", n)
		}
	}
}

// TestSeedDeterminism: the seed is the whole input. The same seed gives
// byte-identical rt-* op streams and the same svc-corpus submission
// order; another seed gives others.
func TestSeedDeterminism(t *testing.T) {
	const n = 200000
	for _, s := range []rtShape{churnShape, liveGraphShape} {
		for mut := 0; mut < rtMutators; mut++ {
			a := streamBytes(s.newGen(7, mut), n)
			b := streamBytes(s.newGen(7, mut), n)
			if !bytes.Equal(a, b) {
				t.Errorf("%s mutator %d: seed 7 gave two different op streams", s.name, mut)
			}
			if c := streamBytes(s.newGen(8, mut), n); bytes.Equal(a, c) {
				t.Errorf("%s mutator %d: seeds 7 and 8 gave the same op stream", s.name, mut)
			}
		}
		if a, b := streamBytes(s.newGen(7, 0), n), streamBytes(s.newGen(7, 1), n); bytes.Equal(a, b) {
			t.Errorf("%s: both mutators got the same op stream", s.name)
		}
	}
	a, b, c := corpusOrder(7, 24, 50), corpusOrder(7, 24, 50), corpusOrder(8, 24, 50)
	if !reflect.DeepEqual(a, b) {
		t.Error("svc-corpus: seed 7 gave two different submission orders")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("svc-corpus: seeds 7 and 8 gave the same submission order")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4),
// which the PR driver uses for a metric's spread.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || q2 != 3.5 || q3 != 5.25 {
		t.Errorf("quartiles = %v %v %v, Python gives 1.75 3.5 5.25", q1, q2, q3)
	}
}

func TestBareTrace(t *testing.T) {
	for _, c := range []struct{ in, want []string }{
		{[]string{"-trace"}, []string{"-trace=1"}},
		{[]string{"--trace", "0", "--seed", "3"}, []string{"--trace", "0", "--seed", "3"}},
		{[]string{"-trace", "-repeat", "2"}, []string{"-trace=1", "-repeat", "2"}},
	} {
		if got := bareTrace(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("bareTrace(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
