package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/gcmodel"
	"repro/internal/invariant"
)

// checkerCase is one checker workload: a job, its known answer, and the
// depth cap of the prefix the per-layer trace runs on.
type checkerCase struct {
	name string
	spec core.JobSpec
	// tweak adjusts the preset's configuration (nil = the preset as
	// shipped, run through core.RunJob exactly as the CLI and the
	// service run it).
	tweak func(*core.ModelConfig)
	want  checkerAnswer
	// shadowDepth caps the shadow explorer and the explore.Run prefix
	// runs it is compared with (0 = the whole space).
	shadowDepth int
	// repeats is how many times the untraced run verifies (0 = once);
	// the verdict time is the median. A job of a few seconds is repeated
	// because one such run is not steady on a shared host.
	repeats int
}

type checkerAnswer struct {
	status                     string
	states, transitions, depth int
	// liveProps is the number of progress properties that must hold
	// (0 = no liveness pass).
	liveProps int
}

var safetyTiny = checkerCase{
	name:        "safety-tiny",
	spec:        core.JobSpec{Preset: "tiny"},
	want:        checkerAnswer{"verified", 997438, 2795677, 258, 0},
	shadowDepth: 62,
}

var safety2MutPOR = checkerCase{
	name:        "safety-2mut-por",
	spec:        core.JobSpec{Preset: "two-mutator", Options: core.JobOptions{Reduce: true}},
	want:        checkerAnswer{"verified", 849910, 2060515, 342, 0},
	shadowDepth: 79,
}

var livenessTinyB1 = checkerCase{
	name:    "liveness-tiny-b1",
	spec:    core.JobSpec{Preset: "tiny", Options: core.JobOptions{Liveness: true}},
	tweak:   func(c *core.ModelConfig) { c.OpBudget = 1 },
	want:    checkerAnswer{"verified", 208519, 486687, 295, 4},
	repeats: 3,
}

// build resolves the case to a configuration and options and builds the
// model: the checker's whole set-up.
func (c checkerCase) build() (*gcmodel.Model, core.ModelConfig, core.VerifyOptions, error) {
	cfg, opt, err := c.spec.Build()
	if err != nil {
		return nil, cfg, opt, err
	}
	if c.tweak != nil {
		c.tweak(&cfg)
	}
	m, err := gcmodel.Build(cfg)
	return m, cfg, opt, err
}

func (c checkerCase) verify() (core.VerifyResult, error) {
	if c.tweak == nil {
		res, _, err := core.RunJob(c.spec, core.JobRun{})
		return res, err
	}
	_, cfg, opt, err := c.build()
	if err != nil {
		return core.VerifyResult{}, err
	}
	return core.Verify(cfg, opt)
}

// checks is the invariant battery the job runs.
func (c checkerCase) checks() []invariant.Check {
	if c.spec.Options.HeadlineOnly {
		return invariant.Safety()
	}
	return invariant.All()
}

func runChecker(e *env, c checkerCase) (*report, error) {
	rep := newReport(c.name, e.trace)
	rep.note("%s is exhaustive: -seed and -seconds do not change it", c.name)

	var m *gcmodel.Model
	setups, err := timeSetups(false, func() (func(), error) {
		var err error
		m, _, _, err = c.build()
		_ = c.checks()
		return nil, err
	})
	if err != nil {
		return nil, err
	}

	mem := startMemSampler()
	var verdicts []float64
	var res core.VerifyResult
	reps := max(c.repeats, 1)
	if e.trace {
		reps = 1 // the trace wants the full run's counts, not a steady time
	}
	for i := 0; i < reps; i++ {
		res = core.VerifyResult{} // drop the last repetition's graph first
		t0 := time.Now()
		if res, err = c.verify(); err != nil {
			return nil, err
		}
		verdicts = append(verdicts, time.Since(t0).Seconds())
		c.checkAnswer(rep, res)
	}
	verdictS := median(verdicts)
	peak := mem.peakMiB()

	if !e.trace {
		rep.set("setup_s", median(setups))
		rep.set("work_per_s", float64(res.States)/verdictS)
		rep.set("op_p50_ms", verdictS*1000)
		rep.set("peak_mem_mb", peak)
		rep.alias("verdict_s", "s", verdictS)
		return rep, nil
	}

	rep.set("explore.states", float64(res.States))
	rep.set("explore.transitions", float64(res.Transitions))
	rep.set("explore.depth", float64(res.Depth))
	rep.set("explore.dedup_ratio", 1-float64(res.States)/float64(res.Transitions))
	rep.set("explore.states_per_s", float64(res.States)/res.Elapsed.Seconds())
	rep.set("explore.visited_bytes_per_state", float64(res.VisitedBytes)/float64(res.States))
	if l := res.Liveness; l != nil {
		rep.set("liveness.check_s", l.Elapsed.Seconds())
		rep.set("liveness.states_per_s", float64(l.States)/l.Elapsed.Seconds())
		rep.set("liveness.graph_bytes", float64(l.GraphBytes))
	}
	res = core.VerifyResult{} // let the full run's visited set go before timing the prefix
	runtime.GC()
	tr := c.tracePrefix(rep, m, shadowOptions{reduce: c.spec.Options.Reduce, maxDepth: c.shadowDepth})
	if err := writeTrace(e.tracePath, tr); err != nil {
		return nil, err
	}
	rep.note("trace written to %s", e.tracePath)
	return rep, nil
}

// checkAnswer compares a verdict with the case's known answer. Each
// compared field is one attempted operation.
func (c checkerCase) checkAnswer(rep *report, res core.VerifyResult) {
	w := c.want
	rep.check(res.Status() == w.status, "status %q, want %q", res.Status(), w.status)
	rep.check(res.States == w.states, "states %d, want %d", res.States, w.states)
	if w.transitions > 0 {
		rep.check(res.Transitions == w.transitions, "transitions %d, want %d", res.Transitions, w.transitions)
		rep.check(res.Depth == w.depth, "depth %d, want %d", res.Depth, w.depth)
	}
	rep.check(res.Violation == nil, "unexpected violation: %v", res.Violation)
	if w.liveProps == 0 {
		return
	}
	l := res.Liveness
	if !rep.check(l != nil, "liveness pass did not run") {
		return
	}
	rep.check(l.Complete == res.Complete && l.States == res.States && l.Transitions == res.Transitions && l.Depth == res.Depth,
		"liveness graph %d/%d/%d complete=%v, safety pass %d/%d/%d", l.States, l.Transitions, l.Depth, l.Complete, res.States, res.Transitions, res.Depth)
	rep.check(len(l.Properties) == w.liveProps, "%d progress properties, want %d", len(l.Properties), w.liveProps)
	for _, p := range l.Properties {
		rep.check(p.Holds, "progress property %s violated", p.Name)
	}
}

// tracePrefix runs the per-layer trace on the depth-capped prefix: the
// shadow explorer untraced, traced, and untraced again (tracing overhead
// is the traced wall against the mean of its two neighbours, which takes
// heap warm-up out of the comparison), then explore.Run at one worker and
// at every processor. All of them must agree on the counts.
func (c checkerCase) tracePrefix(rep *report, m *gcmodel.Model, opt shadowOptions) *tracer {
	checks := c.checks()
	type counts struct{ states, transitions, depth int }
	untraced := func() (counts, time.Duration) {
		r := shadowExplore(m, checks, opt, nil)
		runtime.GC()
		return counts{r.states, r.transitions, r.depth}, r.wall
	}
	before, wallBefore := untraced()

	tr := newTracer(time.Now(), 0)
	traced := shadowExplore(m, checks, opt, tr)
	for _, v := range traced.violations {
		rep.fail(1, "shadow explorer: %s", v)
	}
	states := traced.frontier
	if len(states) == 0 {
		states = traced.sample
	}
	allocs, bytes := successorsAllocs(m, states)
	states, traced.frontier, traced.sample = nil, nil, nil
	runtime.GC()

	after, wallAfter := untraced()

	eopt := explore.Options{MaxDepth: opt.maxDepth, Trace: true, HashOnly: true, Reduce: opt.reduce, Workers: 1}
	one := explore.Run(m, checks, eopt)
	eopt.Workers = 0
	all := explore.Run(m, checks, eopt)
	want := counts{one.States, one.Transitions, one.Depth}
	for _, r := range []struct {
		who string
		got counts
	}{
		{"shadow explorer (untraced, first)", before},
		{"shadow explorer (traced)", counts{traced.states, traced.transitions, traced.depth}},
		{"shadow explorer (untraced, second)", after},
		{fmt.Sprintf("explore.Run workers=%d", runtime.GOMAXPROCS(0)), counts{all.States, all.Transitions, all.Depth}},
	} {
		rep.check(r.got == want, "%s counted %v at depth cap %d, explore.Run workers=1 counted %v", r.who, r.got, opt.maxDepth, want)
	}
	rep.note("trace prefix: depth cap %d, %d states, %d transitions, %d expanded", opt.maxDepth, traced.states, traced.transitions, traced.expanded)

	expanded := float64(traced.expanded)
	transitions := float64(traced.transitions)
	total := func(name string) float64 { return float64(tr.kind(name).total) }
	rep.set("gcmodel.successors_ns_per_state", total(spSuccessors)/expanded)
	rep.set("gcmodel.successors_allocs_per_state", allocs)
	rep.set("gcmodel.successors_bytes_per_state", bytes)
	rep.set("gcmodel.branching", float64(traced.enabled)/expanded)
	rep.set("gcmodel.fingerprint_ns_per_transition", total(spFingerprint)/transitions)
	rep.set("gcmodel.fingerprint_bytes_per_state", float64(traced.fpBytes)/float64(traced.states))
	rep.set("gcmodel.hash_ns_per_transition", total(spHash)/transitions)
	if opt.reduce {
		rep.set("gcmodel.ample_ns_per_state", total(spAmple)/expanded)
		rep.set("gcmodel.ample_taken_ratio", transitions/float64(traced.enabled))
	}
	rep.set("gcmodel.encode_ns_per_state", tr.kind(spEncode).perCall())
	rep.set("gcmodel.decode_ns_per_state", tr.kind(spDecode).perCall())
	rep.set("cimp.tau_step_ns", tr.kind(spTau).perCall())
	rep.set("invariant.view_ns_per_state", tr.kind(spView).perCall())
	rep.set("invariant.battery_ns_per_state", tr.kind(spBattery).perCall())

	// What explore.Run spends beyond the layers it calls: shard insert,
	// trace record, frontier, scheduling. The spans' own clock reads are
	// taken back out of the layer time first.
	cost := float64(emptySpanCost())
	var layerNs float64
	for _, name := range []string{spSuccessors, spFingerprint, spHash, spAmple, spView, spBattery} {
		k := tr.kind(name)
		layerNs += float64(k.total) - cost*float64(k.count)
	}
	rep.set("explore.residual_ns_per_transition", (float64(one.Elapsed)-layerNs)/float64(one.Transitions))
	rep.set("explore.parallel_speedup", one.Elapsed.Seconds()/all.Elapsed.Seconds())

	aggs := mergeKinds(tr)
	untracedWall := (wallBefore + wallAfter).Seconds() / 2
	rep.set("trace.self_time_coverage", float64(selfTotal(aggs))/float64(traced.wall))
	rep.set("trace.overhead_pct", 100*(traced.wall.Seconds()-untracedWall)/untracedWall)
	rep.note("shadow loop wall: untraced %.3fs and %.3fs, traced %.3fs", wallBefore.Seconds(), wallAfter.Seconds(), traced.wall.Seconds())
	rep.Notes = append(rep.Notes, selfShares(aggs)...)
	return tr
}
