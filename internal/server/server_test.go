package server

import (
	"bytes"
	"container/heap"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
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
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		m := e.Metrics()
		if m.JobsByState[string(core.JobDone)] == 13 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	cells, err = e.Corpus()
	if err != nil {
		t.Fatal(err)
	}
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

// TestCacheCorruptionSkipped flips bytes in a cache entry and checks
// the poisoned entry is skipped on reload rather than served.
func TestCacheCorruptionSkipped(t *testing.T) {
	dir := t.TempDir()
	e := newEngine(t, dir)
	info, err := e.Submit(quickSpec(), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, e, info.ID, core.JobDone)
	shutdown(t, e)

	// Corrupt the verdict inside the entry (valid JSON, wrong bytes —
	// only the CRC can catch it).
	corruptCacheEntry(t, dir)

	e2 := newEngine(t, dir)
	defer shutdown(t, e2)
	if n := e2.Metrics().CacheEntries; n != 0 {
		t.Fatalf("corrupt cache entry survived the CRC check (%d entries)", n)
	}
	again, err := e2.Submit(quickSpec(), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if again.Cached {
		t.Fatal("corrupt entry served as a cache hit")
	}
	waitState(t, e2, again.ID, core.JobDone)
}

// corruptCacheEntry rewrites the verdict bytes inside the single cache
// entry under dir without fixing the CRC — valid JSON, poisoned record.
func corruptCacheEntry(t *testing.T, dir string) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "cache", "*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("expected one cache entry: %v, %v", files, err)
	}
	b, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	mangled := bytes.Replace(b, []byte(`no-violation`), []byte(`ok-violation`), 1)
	if bytes.Equal(mangled, b) {
		t.Fatal("corruption did not change the entry")
	}
	if err := os.WriteFile(files[0], mangled, 0o644); err != nil {
		t.Fatal(err)
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
