package server

import (
	"bytes"
	"container/heap"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/verdict"
)

// quickSpec is a small deterministic workload: depth-capped runs stop
// at a layer boundary, so states/transitions/depth are identical on
// every execution whatever the worker count or interruption history.
func quickSpec() core.JobSpec {
	return core.JobSpec{Preset: "tiny", Options: core.JobOptions{MaxDepth: 16}}
}

// slowSpec is deep enough to interrupt mid-run (~ seconds) while still
// bounded; CheckpointEvery 1 maximizes the crash windows.
func slowSpec() core.JobSpec {
	return core.JobSpec{
		Preset:  "tiny",
		Options: core.JobOptions{MaxDepth: 60, CheckpointEvery: 1},
	}
}

func newEngine(t *testing.T, dir string) *Engine {
	t.Helper()
	e, err := New(Options{
		DataDir:         dir,
		Workers:         1,
		CorpusPresets:   []string{"tiny"},
		CorpusMaxStates: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func shutdown(t *testing.T, e *Engine) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// waitFor polls the job until cond holds.
func waitFor(t *testing.T, e *Engine, id string, what string, cond func(JobInfo) bool) JobInfo {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		info, ok := e.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if cond(info) {
			return info
		}
		time.Sleep(10 * time.Millisecond)
	}
	info, _ := e.Get(id)
	t.Fatalf("job %s never reached %s (state %s)", id, what, info.State)
	return JobInfo{}
}

// waitCorpusDone polls until every corpus cell is done and returns the
// cells. It waits on the cells themselves, not on a count of done jobs:
// a cache hit minted mid-sweep is a done job too.
func waitCorpusDone(t *testing.T, e *Engine) []CorpusCell {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		cells, err := e.Corpus()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.ContainsFunc(cells, func(c CorpusCell) bool { return c.State != core.JobDone }) {
			return cells
		}
		if time.Now().After(deadline) {
			t.Fatalf("corpus never settled: %+v", cells)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func waitState(t *testing.T, e *Engine, id string, want core.JobState) JobInfo {
	t.Helper()
	return waitFor(t, e, id, string(want), func(i JobInfo) bool {
		if i.State == core.JobFailed && want != core.JobFailed {
			t.Fatalf("job %s failed: %s", id, i.Error)
		}
		return i.State == want
	})
}

// canonBytes marshals a record in canonical form.
func canonBytes(t *testing.T, rec *verdict.Record) []byte {
	t.Helper()
	if rec == nil {
		t.Fatal("nil verdict record")
	}
	b, err := rec.Canonical().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSubmitRunCache is the cache acceptance test: the first
// submission explores, the second submission of the same fingerprint
// is served from the cache with zero new states explored.
func TestSubmitRunCache(t *testing.T) {
	e := newEngine(t, t.TempDir())
	defer shutdown(t, e)

	first, err := e.Submit(quickSpec(), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first submission must not be a cache hit")
	}
	done := waitState(t, e, first.ID, core.JobDone)
	if done.Verdict == nil || done.Verdict.Verdict != "no-violation" {
		t.Fatalf("unexpected verdict: %+v", done.Verdict)
	}
	m1 := e.Metrics()
	if m1.StatesExplored == 0 {
		t.Fatal("no states counted for the first run")
	}
	if m1.CacheEntries != 1 || m1.CacheMisses != 1 {
		t.Fatalf("cache counters after first run: %+v", m1)
	}

	second, err := e.Submit(quickSpec(), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached || second.State != core.JobDone {
		t.Fatalf("second submission not served from cache: %+v", second)
	}
	if second.ID == first.ID {
		t.Fatal("cache hit should mint a new job record")
	}
	if second.Verdict == nil || !second.Verdict.Cached {
		t.Fatal("cached verdict not marked cached")
	}
	m2 := e.Metrics()
	if m2.CacheHits != 1 {
		t.Fatalf("cache hits = %d, want 1", m2.CacheHits)
	}
	if m2.StatesExplored != m1.StatesExplored {
		t.Fatalf("cache hit explored states: %d -> %d", m1.StatesExplored, m2.StatesExplored)
	}
	if got, want := canonBytes(t, second.Verdict), canonBytes(t, done.Verdict); !bytes.Equal(got, want) {
		t.Errorf("cached verdict differs canonically:\n%s\n%s", got, want)
	}
}

// TestMemBudgetStopIsNotCached: a run that the memory budget stopped
// settles, but its verdict is not cached. The key leaves the budget out,
// so the same spec submitted without a budget must run again and stop
// on its depth cap.
func TestMemBudgetStopIsNotCached(t *testing.T) {
	e := newEngine(t, t.TempDir())
	defer shutdown(t, e)
	run := func(spec core.JobSpec, want explore.StopReason) {
		t.Helper()
		info, err := e.Submit(spec, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		if info.Cached {
			t.Fatalf("%+v: served from the cache", spec.Options)
		}
		done := waitState(t, e, info.ID, core.JobDone)
		if done.Verdict == nil || done.Verdict.Stopped != string(want) {
			t.Fatalf("%+v: verdict %+v, want stopped %q", spec.Options, done.Verdict, want)
		}
	}
	spec := core.JobSpec{Preset: "tiny", Options: core.JobOptions{MaxDepth: 40, MemBudgetMiB: 1}}
	run(spec, explore.StopMemBudget)
	spec.Options.MemBudgetMiB = 0
	run(spec, explore.StopMaxDepth)
	if m := e.Metrics(); m.CacheEntries != 1 {
		t.Errorf("cache entries = %d, want 1 (the max-depth run only)", m.CacheEntries)
	}
}

// TestShutdownResume interrupts a running job via engine shutdown and
// checks a new engine on the same data directory resumes it to a
// verdict byte-identical (canonically) to an uninterrupted run.
func TestShutdownResume(t *testing.T) {
	dir := t.TempDir()
	e := newEngine(t, dir)
	info, err := e.Submit(slowSpec(), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	// Let it run past a few checkpoints before pulling the plug.
	waitFor(t, e, info.ID, "mid-run checkpoint", func(i JobInfo) bool {
		return i.State == core.JobRunning && i.HasCheckpoint &&
			i.Progress != nil && i.Progress.Depth >= 8
	})
	shutdown(t, e)
	stopped, _ := e.Get(info.ID)
	if stopped.State != core.JobInterrupted {
		t.Fatalf("state after shutdown = %s, want interrupted", stopped.State)
	}
	if !stopped.HasCheckpoint {
		t.Fatal("no checkpoint survived the shutdown")
	}

	e2 := newEngine(t, dir)
	defer shutdown(t, e2)
	resumed := waitState(t, e2, info.ID, core.JobDone)
	if !resumed.Resumed {
		t.Error("job not marked resumed")
	}

	// Reference: the same spec run uninterrupted.
	res, _, err := core.RunJob(slowSpec(), core.JobRun{})
	if err != nil {
		t.Fatal(err)
	}
	fp, _, err := slowSpec().Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	ref := verdict.New("tiny", core.Ablations{}, fp, res)
	if got, want := canonBytes(t, resumed.Verdict), canonBytes(t, &ref); !bytes.Equal(got, want) {
		t.Errorf("resumed verdict differs from uninterrupted run:\n--- resumed ---\n%s\n--- clean ---\n%s", got, want)
	}
}

// TestCancelRunning cancels an in-flight job and checks it settles as
// cancelled, not interrupted or done.
func TestCancelRunning(t *testing.T) {
	e := newEngine(t, t.TempDir())
	defer shutdown(t, e)
	info, err := e.Submit(core.JobSpec{Preset: "tiny"}, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, e, info.ID, core.JobRunning)
	if _, err := e.Cancel(info.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, e, info.ID, core.JobCancelled)
	// Cancelling a terminal job is a no-op.
	again, err := e.Cancel(info.ID)
	if err != nil || again.State != core.JobCancelled {
		t.Fatalf("second cancel: %v, %s", err, again.State)
	}
}

// TestHTTPAPI drives the full HTTP surface through the thin client
// against an httptest server.
func TestHTTPAPI(t *testing.T) {
	e := newEngine(t, t.TempDir())
	defer shutdown(t, e)
	ts := httptest.NewServer(e.Handler())
	defer ts.Close()
	cli := NewClient(ts.URL)
	ctx := context.Background()

	h, err := cli.Health(ctx)
	if err != nil || h.Status != "ok" || h.Build == "" {
		t.Fatalf("healthz: %+v, %v", h, err)
	}

	info, err := cli.Submit(ctx, quickSpec(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var sawProgress bool
	final, err := cli.Stream(ctx, info.ID, func(i JobInfo) {
		if i.Progress != nil {
			sawProgress = true
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if final.State != core.JobDone || final.Verdict == nil {
		t.Fatalf("streamed final: %+v", final)
	}
	if !sawProgress {
		t.Error("stream delivered no progress snapshots")
	}

	got, err := cli.Job(ctx, info.ID)
	if err != nil || got.State != core.JobDone {
		t.Fatalf("get: %+v, %v", got, err)
	}
	list, err := cli.Jobs(ctx)
	if err != nil || len(list) != 1 {
		t.Fatalf("list: %d jobs, %v", len(list), err)
	}

	rec, err := cli.Verdict(ctx, got.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Cached || rec.Verdict != final.Verdict.Verdict {
		t.Fatalf("verdict lookup: %+v", rec)
	}
	if _, err := cli.Verdict(ctx, "00000000deadbeef"); err == nil {
		t.Error("verdict lookup of unknown fingerprint should 404")
	}

	m, err := cli.Metrics(ctx)
	if err != nil || m.CacheEntries != 1 {
		t.Fatalf("metrics: %+v, %v", m, err)
	}
	if _, err := cli.Job(ctx, "j999999"); err == nil {
		t.Error("get of unknown job should 404")
	}
}

// TestAuditRecordRemote: an audited job's record carries the collision
// count, and the record a remote client streams back equals, in canonical
// form, the one a local run of the spec builds. gcmc prints local and
// remote verdicts through one renderer of the record (printRecord), so
// the audit line a -remote run prints is the local run's. A job without
// the option has no audit in its record.
func TestAuditRecordRemote(t *testing.T) {
	e := newEngine(t, t.TempDir())
	defer shutdown(t, e)
	ts := httptest.NewServer(e.Handler())
	defer ts.Close()
	cli := NewClient(ts.URL)
	ctx := context.Background()

	audited := quickSpec()
	audited.Options.Audit = true
	for _, spec := range []core.JobSpec{audited, quickSpec()} {
		info, err := cli.Submit(ctx, spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		final, err := cli.Stream(ctx, info.ID, nil)
		if err != nil {
			t.Fatal(err)
		}
		if final.State != core.JobDone || final.Verdict == nil {
			t.Fatalf("audit=%v: streamed final: %+v", spec.Options.Audit, final)
		}
		if a := final.Verdict.Audit; spec.Options.Audit != (a != nil) || a != nil && (a.Collisions != 0 || a.Partial) {
			t.Fatalf("audit=%v: the record's audit is %+v", spec.Options.Audit, a)
		}
		res, _, err := core.RunJob(spec, core.JobRun{})
		if err != nil {
			t.Fatal(err)
		}
		fp, _, err := spec.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		local := verdict.New(spec.Preset, spec.Ablations, fp, res)
		if got, want := canonBytes(t, final.Verdict), canonBytes(t, &local); !bytes.Equal(got, want) {
			t.Fatalf("audit=%v: remote record differs from the local one:\n%s\n%s", spec.Options.Audit, got, want)
		}
	}
}

// TestSubmitRejectsWhatItDoesNotUnderstand: a request the daemon cannot
// read in full is a 400 naming the offending field and creates no job — a
// misspelt cap must not run the uncapped job, and the options this build
// deleted must not be silently dropped.
func TestSubmitRejectsWhatItDoesNotUnderstand(t *testing.T) {
	e := newEngine(t, t.TempDir())
	defer shutdown(t, e)
	ts := httptest.NewServer(e.Handler())
	defer ts.Close()

	for name, tc := range map[string]struct{ body, want string }{
		"misspelt":  {`{"spec":{"preset":"tiny","options":{"max_state":20000}}}`, `"max_state"`},
		"symmetry":  {`{"spec":{"preset":"tiny","options":{"max_depth":16,"symmetry":true}}}`, `"symmetry"`},
		"shards":    {`{"spec":{"preset":"tiny","options":{"max_depth":16,"shards":8}}}`, `"shards"`},
		"top-level": {`{"spec":{"preset":"tiny"},"prio":1}`, `"prio"`},
		"bounds":    {`{"spec":{"preset":"alloc","bounds":{"ref":2}}}`, `"ref"`},
		"trailing":  {`{"spec":{"preset":"tiny"}} {"spec":{"preset":"alloc"}}`, "trailing data"},
		"oversized": {`{"spec":{"preset":"` + strings.Repeat("x", maxSubmitBytes) + `"}}`, "too large"},
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var msg apiError
		err = json.NewDecoder(resp.Body).Decode(&msg)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg.Error, tc.want) {
			t.Errorf("%s: status %d, error %q (%v); want 400 mentioning %s", name, resp.StatusCode, msg.Error, err, tc.want)
		}
	}
	if jobs := e.List(); len(jobs) != 0 {
		t.Errorf("rejected requests created %d job(s)", len(jobs))
	}
}

// TestSubmitBoundsSpec: a spec with bounds is submittable over the wire,
// keyed by the fingerprint the local JobSpec computes (not bare alloc's),
// and served from the cache when submitted again.
func TestSubmitBoundsSpec(t *testing.T) {
	e := newEngine(t, t.TempDir())
	defer shutdown(t, e)
	ts := httptest.NewServer(e.Handler())
	defer ts.Close()

	const body = `{"spec":{"preset":"alloc","bounds":{"refs":2},"options":{"max_depth":10}}}`
	var req SubmitRequest
	if err := core.DecodeStrict(strings.NewReader(body), &req); err != nil {
		t.Fatal(err)
	}
	fp, _, err := req.Spec.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	bare, _, err := core.JobSpec{Preset: "alloc", Options: req.Spec.Options}.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp == bare {
		t.Fatal("bounds did not change the fingerprint")
	}
	submit := func() JobInfo {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var info JobInfo
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil || resp.StatusCode != http.StatusCreated {
			t.Fatalf("status %d (%v), want 201", resp.StatusCode, err)
		}
		if want := fmt.Sprintf("%016x", fp); info.Fingerprint != want {
			t.Fatalf("fingerprint %s, want the local spec's %s", info.Fingerprint, want)
		}
		return info
	}
	first := submit()
	if first.Cached {
		t.Fatal("first submission must not be a cache hit")
	}
	waitState(t, e, first.ID, core.JobDone)
	if second := submit(); !second.Cached {
		t.Fatalf("resubmission missed the cache: %+v", second)
	}
}

// TestRecoverOlderJobRecord: job records on disk are read leniently, so a
// data directory written by a daemon that still had the symmetry and
// shards options loads, and its unfinished job runs.
func TestRecoverOlderJobRecord(t *testing.T) {
	dir := t.TempDir()
	jobDir := filepath.Join(dir, "jobs", "j000007")
	if err := os.MkdirAll(jobDir, 0o755); err != nil {
		t.Fatal(err)
	}
	rec := `{"id":"j000007","state":"queued","priority":0,"submitted":"2026-01-01T00:00:00Z",
		"spec":{"preset":"tiny","options":{"max_depth":16,"symmetry":true,"shards":8}}}`
	if err := os.WriteFile(filepath.Join(jobDir, "job.json"), []byte(rec), 0o644); err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, dir)
	defer shutdown(t, e)
	done := waitState(t, e, "j000007", core.JobDone)
	if done.Verdict == nil || done.Verdict.Depth != 16 {
		t.Fatalf("recovered job: %+v", done)
	}
}

// TestCorpus enumerates the (restricted) corpus and runs it through
// the background queue.
func TestCorpus(t *testing.T) {
	e := newEngine(t, t.TempDir())
	defer shutdown(t, e)

	cells, err := e.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	// 1 preset x 6 ablation variants x {tso, sc}.
	if len(cells) != 12 {
		t.Fatalf("corpus size = %d, want 12", len(cells))
	}
	seen := map[string]bool{}
	for _, c := range cells {
		if seen[c.Fingerprint] {
			t.Errorf("duplicate fingerprint %s in corpus", c.Fingerprint)
		}
		seen[c.Fingerprint] = true
		if c.Spec.Options.MaxStates != 2000 {
			t.Errorf("cell %s/%s/%s missing the state cap", c.Preset, c.Ablations, c.Memory)
		}
	}

	n, err := e.EnqueueCorpus()
	if err != nil {
		t.Fatal(err)
	}
	if n != 12 {
		t.Fatalf("enqueued %d cells, want 12", n)
	}
	// Corpus jobs sit behind interactive ones: a priority-0 submission
	// must outrank every queued corpus cell.
	jump, err := e.Submit(quickSpec(), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, e, jump.ID, core.JobDone)
	cells = waitCorpusDone(t, e)
	for _, c := range cells {
		if c.State != core.JobDone {
			t.Fatalf("corpus cell %s/%s/%s state %s", c.Preset, c.Ablations, c.Memory, c.State)
		}
		if c.Verdict == "" {
			t.Errorf("corpus cell %s/%s/%s has no verdict", c.Preset, c.Ablations, c.Memory)
		}
	}
}

// TestPersistenceAcrossRestart checks terminal jobs reload with their
// verdicts after a clean restart.
func TestPersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	e := newEngine(t, dir)
	info, err := e.Submit(quickSpec(), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, e, info.ID, core.JobDone)
	shutdown(t, e)

	e2 := newEngine(t, dir)
	defer shutdown(t, e2)
	back, ok := e2.Get(info.ID)
	if !ok {
		t.Fatal("job lost across restart")
	}
	if back.State != core.JobDone || back.Verdict == nil {
		t.Fatalf("reloaded job: %+v", back)
	}
	if !bytes.Equal(canonBytes(t, back.Verdict), canonBytes(t, done.Verdict)) {
		t.Error("verdict changed across restart")
	}
	// The cache reloads too: a resubmission is a hit, not a re-run.
	hit, err := e2.Submit(quickSpec(), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached {
		t.Error("resubmission after restart missed the reloaded cache")
	}
	if m := e2.Metrics(); m.StatesExplored != 0 {
		t.Errorf("restarted engine explored %d states for a cached verdict", m.StatesExplored)
	}
}

// TestCacheCorruptionSkipped flips bytes in a done job's record and
// checks the record is skipped on reload: never listed, never served as
// a cache hit, and a resubmission of its spec recomputes the verdict.
func TestCacheCorruptionSkipped(t *testing.T) {
	dir := t.TempDir()
	e := newEngine(t, dir)
	info, err := e.Submit(quickSpec(), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, e, info.ID, core.JobDone)
	shutdown(t, e)

	// Corrupt the verdict inside the record (valid JSON, wrong bytes —
	// only the CRC can catch it).
	corruptJobRecord(t, dir, info.ID)

	e2 := newEngine(t, dir)
	defer shutdown(t, e2)
	if n := e2.Metrics().CacheEntries; n != 0 {
		t.Fatalf("corrupt job record survived the CRC check (%d cache entries)", n)
	}
	if _, ok := e2.Get(info.ID); ok {
		t.Fatal("corrupt job record listed")
	}
	if _, ok := e2.CachedVerdict(info.Fingerprint); ok {
		t.Fatal("corrupt job record serves /v1/verdicts")
	}
	again, err := e2.Submit(quickSpec(), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if again.Cached {
		t.Fatal("corrupt record served as a cache hit")
	}
	if again.ID == info.ID {
		t.Fatalf("resubmission reused the skipped record's id %s", again.ID)
	}
	waitState(t, e2, again.ID, core.JobDone)
}

// corruptJobRecord rewrites the verdict bytes inside a job's record
// without fixing the CRC — valid JSON, poisoned record.
func corruptJobRecord(t *testing.T, dir, id string) {
	t.Helper()
	path := filepath.Join(dir, "jobs", id, "job.json")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mangled := bytes.Replace(b, []byte(`no-violation`), []byte(`ok-violation`), 1)
	if bytes.Equal(mangled, b) {
		t.Fatal("corruption did not change the record")
	}
	if err := os.WriteFile(path, mangled, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLoadParentDataDir loads a data directory in the layout that
// predates checksummed job records: a bare job.json, the verdict in
// verdict.json beside it, and a CRC-checked copy under cache/. Every
// job keeps its state and verdict, but a verdict read from an
// unchecksummed file is never reused: the first resubmission runs, and
// only the second is a hit.
func TestLoadParentDataDir(t *testing.T) {
	dir := t.TempDir()
	res, _, err := core.RunJob(quickSpec(), core.JobRun{})
	if err != nil {
		t.Fatal(err)
	}
	fp, summary, err := quickSpec().Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	rec := verdict.New("tiny", core.Ablations{}, fp, res)
	recJSON, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	spec := `{"preset":"tiny","options":{"max_depth":16,"checkpoint_every":4}}`
	at := `"submitted":"2026-01-01T00:00:00Z","started":"2026-01-01T00:00:01Z","finished":"2026-01-01T00:00:02Z"`
	files := map[string]string{
		"jobs/j000001/job.json":     `{"id":"j000001","spec":` + spec + `,"state":"done","priority":0,` + at + `}`,
		"jobs/j000001/verdict.json": string(recJSON),
		"jobs/j000002/job.json":     `{"id":"j000002","spec":` + spec + `,"state":"cancelled","priority":0,` + at + `}`,
		fmt.Sprintf("cache/%016x.json", fp): fmt.Sprintf(`{"schema":"gcmc.cache/v1","fingerprint":"%016x","summary":%q,"crc32":%d,"record":%s}`,
			fp, summary, crc32.ChecksumIEEE(recJSON), recJSON),
	}
	for name, body := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	e := newEngine(t, dir)
	defer shutdown(t, e)
	ts := httptest.NewServer(e.Handler())
	defer ts.Close()
	cli := NewClient(ts.URL)
	ctx := context.Background()

	done, err := cli.Job(ctx, "j000001")
	if err != nil || done.State != core.JobDone || done.Verdict == nil {
		t.Fatalf("old done job: %+v, %v", done, err)
	}
	if !bytes.Equal(canonBytes(t, done.Verdict), canonBytes(t, &rec)) {
		t.Error("old done job's verdict changed on load")
	}
	if cancelled, err := cli.Job(ctx, "j000002"); err != nil || cancelled.State != core.JobCancelled {
		t.Fatalf("old cancelled job: %+v, %v", cancelled, err)
	}
	if m := e.Metrics(); m.CacheEntries != 0 {
		t.Errorf("cache entries = %d, want 0: no old verdict is reusable", m.CacheEntries)
	}
	if _, err := cli.Verdict(ctx, fmt.Sprintf("%016x", fp)); err == nil {
		t.Error("/v1/verdicts served an old verdict")
	}

	first, err := cli.Submit(ctx, quickSpec(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached || first.ID != "j000003" {
		t.Fatalf("first resubmission: %+v, want a fresh run as j000003", first)
	}
	waitState(t, e, first.ID, core.JobDone)
	if m := e.Metrics(); m.StatesExplored != int64(res.States) || m.CacheEntries != 1 {
		t.Errorf("after the rerun: %d states explored, %d cache entries; want %d and 1", m.StatesExplored, m.CacheEntries, res.States)
	}
	second, err := cli.Submit(ctx, quickSpec(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatalf("second resubmission missed the rerun's verdict: %+v", second)
	}
}

// TestHTTPCancel cancels a queued and a running job through the client:
// both land cancelled, their streams close, and a second cancel changes
// nothing.
func TestHTTPCancel(t *testing.T) {
	e := newEngine(t, t.TempDir())
	defer shutdown(t, e)
	ts := httptest.NewServer(e.Handler())
	defer ts.Close()
	cli := NewClient(ts.URL)
	ctx := context.Background()

	running, err := cli.Submit(ctx, core.JobSpec{Preset: "tiny"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, e, running.ID, core.JobRunning)
	queued, err := cli.Submit(ctx, quickSpec(), 0)
	if err != nil || queued.State != core.JobQueued {
		t.Fatalf("second job behind the first: %+v, %v", queued, err)
	}

	streams := make(map[string]chan JobInfo)
	for _, id := range []string{running.ID, queued.ID} {
		ch := make(chan JobInfo, 1)
		streams[id] = ch
		go func() {
			final, err := cli.Stream(ctx, id, nil)
			if err != nil {
				t.Errorf("stream %s: %v", id, err)
			}
			ch <- final
		}()
	}
	for _, id := range []string{queued.ID, running.ID} {
		if _, err := cli.Cancel(ctx, id); err != nil {
			t.Fatalf("cancel %s: %v", id, err)
		}
		select {
		case final := <-streams[id]:
			if final.State != core.JobCancelled {
				t.Errorf("stream of %s ended %s, want cancelled", id, final.State)
			}
		case <-time.After(60 * time.Second):
			t.Fatalf("stream of %s did not close after cancel", id)
		}
		settled, err := cli.Job(ctx, id)
		if err != nil || settled.State != core.JobCancelled {
			t.Fatalf("job %s after cancel: %+v, %v", id, settled, err)
		}
		again, err := cli.Cancel(ctx, id)
		if err != nil {
			t.Fatalf("second cancel of %s: %v", id, err)
		}
		if again.State != settled.State || !again.Finished.Equal(*settled.Finished) {
			t.Errorf("second cancel of %s changed the job: %+v -> %+v", id, settled, again)
		}
	}
	if _, err := cli.Cancel(ctx, "j999999"); err == nil {
		t.Error("cancel of an unknown job should 404")
	}
}

// TestHTTPCorpus checks GET and POST /v1/corpus against the engine's
// Corpus and EnqueueCorpus, before, during and after a sweep.
func TestHTTPCorpus(t *testing.T) {
	e := newEngine(t, t.TempDir())
	defer shutdown(t, e)
	ts := httptest.NewServer(e.Handler())
	defer ts.Close()
	cli := NewClient(ts.URL)
	ctx := context.Background()

	same := func(when string) {
		t.Helper()
		want, err := e.Corpus()
		if err != nil {
			t.Fatal(err)
		}
		got, err := cli.Corpus(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: GET /v1/corpus differs from Corpus():\n%+v\n%+v", when, got, want)
		}
	}
	same("fresh")
	n, err := cli.EnqueueCorpus(ctx)
	if err != nil || n != 12 {
		t.Fatalf("POST /v1/corpus enqueued %d, %v; want 12", n, err)
	}
	if n, err := e.EnqueueCorpus(); err != nil || n != 0 {
		t.Fatalf("EnqueueCorpus during the sweep enqueued %d, %v; want 0 (all in flight)", n, err)
	}
	waitCorpusDone(t, e)
	same("settled")
	if n, err := cli.EnqueueCorpus(ctx); err != nil || n != 0 {
		t.Fatalf("POST /v1/corpus after the sweep enqueued %d, %v; want 0 (all cached)", n, err)
	}
	same("re-enqueued")
	cells, err := cli.Corpus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if c.State != core.JobDone || !c.Cached || c.Verdict == "" {
			t.Errorf("cell %s/%s/%s after a cached re-enqueue: %+v", c.Preset, c.Ablations, c.Memory, c)
		}
	}
}

// TestQueueOrder pins the priority heap: lower priority value first,
// FIFO within a level.
func TestQueueOrder(t *testing.T) {
	var q jobQueue
	push := func(id string, prio, seq int) {
		heap.Push(&q, &job{id: id, priority: prio, pushSeq: seq})
	}
	push("c", 100, 1)
	push("a", 0, 2)
	push("d", 100, 3)
	push("b", 0, 4)
	var order []string
	for q.Len() > 0 {
		order = append(order, heap.Pop(&q).(*job).id)
	}
	want := []string{"a", "b", "c", "d"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("pop order %v, want %v", order, want)
		}
	}
}
