package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/gcmodel"
	"repro/internal/invariant"
	"repro/internal/server"
	"repro/internal/verdict"
)

// corpusCase sizes the service workload: which presets at which depth
// cap (a depth cap stops at a layer barrier, so every count is exact),
// how often the corpus is resubmitted, and the pinned answers.
type corpusCase struct {
	presets   []corpusPreset
	hitRounds int
	// cex is the job whose counterexample the trace times the rendering
	// of; it must violate.
	cex core.JobSpec
	// want pins status and counts per cell, keyed "preset/ablations";
	// nil checks only that the three phases agree.
	want map[string]cellAnswer
}

type corpusPreset struct {
	name     string
	maxDepth int
}

type cellAnswer struct {
	status                     string
	states, transitions, depth int
}

// corpusAblations is the ablation axis: the clean configuration and the
// five mechanism removals of the paper's §2 / E11 table.
var corpusAblations = []core.Ablations{
	{},
	{NoDeletionBarrier: true},
	{NoInsertionBarrier: true},
	{AllocWhite: true},
	{UnlockedMark: true},
	{NoHSFence: true},
}

// fullCorpus: depths chosen so each clean cell visits 15k–30k states, and
// tiny's is past 33, where the last of its three TSO-violating cells
// (no-insertion-barrier, unlocked-mark, no-hs-fence) is found.
var fullCorpus = corpusCase{
	presets: []corpusPreset{
		{"tiny", 34}, {"alloc", 20}, {"two-mutator", 38}, {"chain", 24},
	},
	hitRounds: 50,
	// Uncapped: without the deletion barrier the lost object is found at
	// depth 45, past the corpus's cap.
	cex:  core.JobSpec{Preset: "tiny", Ablations: core.Ablations{NoDeletionBarrier: true}},
	want: fullCorpusAnswers,
}

func (c corpusCase) cells() []core.JobSpec {
	var out []core.JobSpec
	for _, p := range c.presets {
		for _, a := range corpusAblations {
			out = append(out, core.JobSpec{Preset: p.name, Ablations: a, Options: core.JobOptions{MaxDepth: p.maxDepth}})
		}
	}
	return out
}

func cellName(s core.JobSpec) string {
	a := s.Ablations.String()
	if a == "" {
		a = "clean"
	}
	return s.Preset + "/" + a
}

// corpusOrder is the seeded resubmission order: one permutation of the
// cells per hit round. The miss phase submits the cells in table order on
// every seed, so that its time and memory do not depend on which big job
// happens to follow which.
func corpusOrder(seed int64, ncells, hitRounds int) [][]int {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]int, hitRounds)
	for i := range out {
		out[i] = rng.Perm(ncells)
	}
	return out
}

// service is one in-process gcmcd: an engine behind a loopback HTTP
// server, and a client with one connection to it.
type service struct {
	engine *server.Engine
	http   *httptest.Server
	client *server.Client
}

// startService is the service's set-up: the engine built over its data
// directory and the listener accepting. No request is sent: a first
// round trip is mostly goroutine wake-up latency, which on a shared host
// is the noisiest thing in the process.
func startService(dir string) (*service, error) {
	eng, err := server.New(server.Options{DataDir: dir, Workers: 1})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(eng.Handler())
	cl := server.NewClient(ts.URL)
	cl.HTTP = ts.Client()
	return &service{eng, ts, cl}, nil
}

func (s *service) stop() error {
	s.http.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return s.engine.Shutdown(ctx)
}

// jobTiming is one submission as the client saw it.
type jobTiming struct {
	total, submit time.Duration
	end           time.Time
	info          server.JobInfo
}

// submit sends one spec and follows it to its verdict. tr may be nil.
func (s *service) submit(ctx context.Context, spec core.JobSpec, tr *tracer) (jobTiming, error) {
	kJob, kSubmit, kStream := tr.kind("server.job"), tr.kind("server.Client.Submit"), tr.kind("server.Client.Stream")
	var jt jobTiming
	start := time.Now()
	tr.push(kJob)
	tr.push(kSubmit)
	info, err := s.client.Submit(ctx, spec, 0)
	tr.pop()
	jt.submit = time.Since(start)
	if err == nil && !info.State.Terminal() {
		tr.push(kStream)
		info, err = s.client.Stream(ctx, info.ID, nil)
		tr.pop()
	}
	tr.pop()
	jt.end = time.Now()
	jt.total = jt.end.Sub(start)
	jt.info = info
	return jt, err
}

// canonicalBytes is the byte form two verdicts of one spec must share.
// A cache hit must return the settled verdict whole. Two separate runs
// agree on everything except which of the equally short paths to the
// violating state was recorded (whichever worker inserted it first), so
// between runs the rendered counterexample is left out; its invariant,
// depth and length are compared.
func canonicalBytes(r verdict.Record, sameRun bool) ([]byte, error) {
	r = r.Canonical()
	if !sameRun && r.Violation != nil {
		v := *r.Violation
		v.Rendered = ""
		r.Violation = &v
	}
	return r.Marshal()
}

func runService(e *env, c corpusCase) (*report, error) {
	rep := newReport("svc-corpus", e.trace)
	ctx := context.Background()
	cells := c.cells()
	order := corpusOrder(e.seed, len(cells), c.hitRounds)

	// Set-up, several times over: engine built and listening.
	// Every repetition builds the same directory afresh: a growing row of
	// sibling directories made each set-up slower than the one before.
	var svc *service
	dataDir := filepath.Join(e.dir, "data")
	setups, err := timeSetups(false, func() (func(), error) {
		var err error
		if svc, err = startService(dataDir); err != nil {
			return nil, err
		}
		return func() {
			svc.stop()
			os.RemoveAll(dataDir)
		}, nil
	})
	if err != nil {
		return nil, err
	}
	defer svc.stop()
	if _, err := svc.client.Health(ctx); err != nil {
		return nil, err
	}

	var tr *tracer
	if e.trace {
		tr = newTracer(time.Now(), 0)
		tr.keep = true
	}
	mem := startMemSampler()

	// Phase A: every cell is a miss, run to its verdict.
	missCanon := make([][]byte, len(cells)) // as settled, for the hits
	missCross := make([][]byte, len(cells)) // comparable with another run
	var missMs, submitMs, queueMs, runMs, tailMs []float64
	startA := time.Now()
	for i, spec := range cells {
		jt, err := svc.submit(ctx, spec, tr)
		info := jt.info
		if !rep.check(err == nil && info.State == core.JobDone && info.Verdict != nil && !info.Cached,
			"miss %s: err=%v state=%s cached=%v error=%q", cellName(spec), err, info.State, info.Cached, info.Error) {
			continue
		}
		missMs = append(missMs, ms(jt.total))
		submitMs = append(submitMs, ms(jt.submit))
		if info.Started != nil && info.Finished != nil {
			queueMs = append(queueMs, ms(info.Started.Sub(info.Submitted)))
			runMs = append(runMs, ms(info.Finished.Sub(*info.Started)))
			tailMs = append(tailMs, ms(jt.end.Sub(*info.Finished)))
		}
		if missCanon[i], err = canonicalBytes(*info.Verdict, true); err != nil {
			return nil, err
		}
		if missCross[i], err = canonicalBytes(*info.Verdict, false); err != nil {
			return nil, err
		}
		if w, ok := c.want[cellName(spec)]; c.want != nil {
			v := info.Verdict
			rep.check(ok && v.Verdict == w.status && v.States == w.states && v.Transitions == w.transitions && v.Depth == w.depth,
				"cell %s: {%q, %d, %d, %d}, pinned %+v", cellName(spec), v.Verdict, v.States, v.Transitions, v.Depth, w)
		}
	}
	wallA := time.Since(startA)

	// Phase B: the same cells again and again; every one must be served
	// from the verdict cache with the verdict phase A settled. In a
	// traced run odd rounds are traced and even rounds are not, which
	// prices the tracing on the same loop.
	var hitMs []float64
	var tracedWall, untracedWall time.Duration
	for round, perm := range order {
		rtr := tr
		if round%2 == 0 {
			rtr = nil
		}
		t0 := time.Now()
		for _, i := range perm {
			jt, err := svc.submit(ctx, cells[i], rtr)
			info := jt.info
			if !rep.check(err == nil && info.State == core.JobDone && info.Cached && info.Verdict != nil,
				"hit %s: err=%v state=%s cached=%v", cellName(cells[i]), err, info.State, info.Cached) {
				continue
			}
			hitMs = append(hitMs, ms(jt.total))
			got, err := canonicalBytes(*info.Verdict, true)
			if err != nil {
				return nil, err
			}
			rep.check(bytes.Equal(got, missCanon[i]), "hit %s: cached verdict differs from the verdict the miss settled", cellName(cells[i]))
		}
		if rtr != nil {
			tracedWall += time.Since(t0)
		} else {
			untracedWall += time.Since(t0)
		}
	}
	peak := mem.peakMiB()
	met, err := svc.client.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	rep.check(int(met.CacheHits) == c.hitRounds*len(cells) && int(met.CacheMisses) == len(cells) && met.JobRetries == 0 && met.StorageErrors == 0,
		"service counters: hits=%d misses=%d retries=%d storage_errors=%d, want %d/%d/0/0",
		met.CacheHits, met.CacheMisses, met.JobRetries, met.StorageErrors, c.hitRounds*len(cells), len(cells))

	// Phase C: the same cells straight through core.RunJob. The service
	// must have added nothing to and taken nothing from the verdict.
	startC := time.Now()
	for i, spec := range cells {
		res, _, err := core.RunJob(spec, core.JobRun{})
		if err != nil {
			return nil, err
		}
		fp, _, err := spec.Fingerprint()
		if err != nil {
			return nil, err
		}
		got, err := canonicalBytes(verdict.New(spec.Preset, spec.Ablations, fp, res), false)
		if err != nil {
			return nil, err
		}
		rep.check(bytes.Equal(got, missCross[i]), "cell %s: service verdict differs from core.RunJob's", cellName(spec))
	}
	wallC := time.Since(startC)

	if len(missMs) == 0 || len(hitMs) == 0 {
		return nil, fmt.Errorf("no job completed: %v", rep.Failures)
	}
	rep.note("phase A (misses) %.3fs, phase C (direct) %.3fs, %d hits", wallA.Seconds(), wallC.Seconds(), len(hitMs))
	if !e.trace {
		rep.set("setup_s", median(setups))
		rep.set("work_per_s", float64(len(cells))/wallA.Seconds())
		rep.set("op_p50_ms", median(missMs))
		rep.set("peak_mem_mb", peak)
		rep.alias("corpus_sweep_s", "s", wallA.Seconds())
		rep.alias("submit_to_verdict_p50_ms", "ms", median(missMs))
		rep.alias("cache_hit_p50_ms", "ms", median(hitMs))
		return rep, nil
	}

	rep.set("server.overhead_ms_per_job", ms(wallA-wallC)/float64(len(cells)))
	rep.set("server.submit_rpc_p50_ms", median(submitMs))
	rep.set("server.queue_wait_p50_ms", median(queueMs))
	rep.set("server.run_p50_ms", median(runMs))
	rep.set("server.client_tail_p50_ms", median(tailMs))
	rep.set("server.cache_hit_p50_ms", median(hitMs))
	rep.set("server.cache_hit_p99_ms", quantile(hitMs, 0.99))
	rep.set("server.cache_hits", float64(met.CacheHits))
	rep.set("server.cache_misses", float64(met.CacheMisses))
	rep.set("server.job_retries", float64(met.JobRetries))
	rep.set("server.storage_errors", float64(met.StorageErrors))
	if untracedWall > 0 && tracedWall > 0 {
		rep.set("trace.overhead_pct", 100*(tracedWall.Seconds()-untracedWall.Seconds())/untracedWall.Seconds())
	}
	job := tr.kind("server.job")
	aggs := mergeKinds(tr)
	rep.set("trace.self_time_coverage", float64(selfTotal(aggs))/float64(job.total))
	rep.Notes = append(rep.Notes, selfShares(aggs)...)

	if err := c.traceLayers(e, rep); err != nil {
		return nil, err
	}
	if err := writeTrace(e.tracePath, tr); err != nil {
		return nil, err
	}
	rep.note("trace written to %s", e.tracePath)
	return rep, nil
}

// traceLayers measures the layers under a service job directly, on the
// corpus's first preset: the checkpoint file a job leaves, the state
// codec it is made with, and the rendering of a counterexample.
func (c corpusCase) traceLayers(e *env, rep *report) error {
	p := c.presets[0]
	opts := core.JobOptions{MaxDepth: p.maxDepth, CheckpointEvery: 4}

	ckpt := filepath.Join(e.dir, "layer.ckpt")
	if _, _, err := core.RunJob(core.JobSpec{Preset: p.name, Options: opts}, core.JobRun{CheckpointPath: ckpt}); err != nil {
		return err
	}
	var loadMs, saveMs []float64
	var size int64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		snap, err := checkpoint.Load(ckpt)
		if err != nil {
			return err
		}
		loadMs = append(loadMs, ms(time.Since(t0)))
		t0 = time.Now()
		if size, err = checkpoint.Save(ckpt+".copy", snap); err != nil {
			return err
		}
		saveMs = append(saveMs, ms(time.Since(t0)))
	}
	rep.set("checkpoint.bytes", float64(size))
	rep.set("checkpoint.load_ms", median(loadMs))
	rep.set("checkpoint.save_ms", median(saveMs))

	res, _, err := core.RunJob(c.cex, core.JobRun{})
	if err != nil {
		return err
	}
	var renderMs []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		out := res.RenderViolation()
		renderMs = append(renderMs, ms(time.Since(t0)))
		rep.check(out != "", "%s rendered no counterexample", cellName(c.cex))
	}
	rep.set("explore.cex_render_ms", median(renderMs))

	cfg, err := core.PresetConfig(p.name)
	if err != nil {
		return err
	}
	m, err := gcmodel.Build(cfg)
	if err != nil {
		return err
	}
	tr := newTracer(time.Now(), 0)
	sh := shadowExplore(m, invariant.All(), shadowOptions{maxDepth: p.maxDepth, codecEvery: 16}, tr)
	for _, v := range sh.violations {
		rep.fail(1, "shadow explorer: %s", v)
	}
	rep.set("gcmodel.encode_ns_per_state", tr.kind(spEncode).perCall())
	rep.set("gcmodel.decode_ns_per_state", tr.kind(spDecode).perCall())
	return nil
}
