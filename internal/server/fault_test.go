package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/verdict"
)

// recordOps is the number of FaultFS operations one job-record write
// makes on job.json paths: create, write, sync and close of the staging
// file, then the rename. TestRecordWriteBudget pins it.
const recordOps = 5

// settleSkip is the number of job.json operations before a fresh job's
// settling write: the record written at Submit and the one written when
// a worker starts the job.
const settleSkip = 2 * recordOps

// faultEngine is an engine over fsys with a retry policy fast enough
// for tests.
func faultEngine(t *testing.T, dir string, fsys storage.FS, attempts int) *Engine {
	t.Helper()
	e, err := New(Options{
		DataDir:         dir,
		Workers:         1,
		CorpusPresets:   []string{"tiny"},
		CorpusMaxStates: 2000,
		FS:              fsys,
		Retry:           RetryPolicy{MaxAttempts: attempts, BaseDelay: 5 * time.Millisecond, MaxDelay: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// quickVerdict is quickSpec's verdict from an uninterrupted in-process
// run, in canonical form.
func quickVerdict(t *testing.T) []byte {
	t.Helper()
	res, _, err := core.RunJob(quickSpec(), core.JobRun{})
	if err != nil {
		t.Fatal(err)
	}
	fp, _, err := quickSpec().Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	ref := verdict.New("tiny", core.Ablations{}, fp, res)
	return canonBytes(t, &ref)
}

// TestCacheFaultMatrix walks every fault kind through every operation
// of the record write that settles a job, then restarts on the same
// directory with a clean filesystem. The durability invariant: the job
// is done with its verdict, or it runs again to the same canonical
// verdict. It is never done without a verdict and never done with a
// corrupt one. A torn rename reports success and leaves a truncated
// record, which fails its checksum: that job is skipped, and a
// resubmission of its spec is a miss that runs again.
func TestCacheFaultMatrix(t *testing.T) {
	want := quickVerdict(t)
	for _, kind := range storage.Kinds {
		for off := 0; off < recordOps; off++ {
			t.Run(fmt.Sprintf("%s@put+%d", kind, off), func(t *testing.T) {
				dir := t.TempDir()
				ffs := storage.NewFaultFS(nil)
				ffs.FailPath("job.json", kind, settleSkip+off)
				e := faultEngine(t, dir, ffs, 3)
				info, err := e.Submit(quickSpec(), 0, false)
				if err != nil {
					t.Fatal(err)
				}
				waitFor(t, e, info.ID, "terminal", func(i JobInfo) bool { return i.State.Terminal() })
				shutdown(t, e)

				// Recovery: a clean FS, like a restarted daemon.
				e2 := newEngine(t, dir)
				defer shutdown(t, e2)
				got, ok := e2.Get(info.ID)
				switch {
				case !ok:
					if kind != storage.TornRename {
						t.Fatalf("job lost after %s at put+%d", kind, off)
					}
					again, err := e2.Submit(quickSpec(), 0, false)
					if err != nil {
						t.Fatal(err)
					}
					if again.Cached {
						t.Fatalf("resubmission after a torn record was a cache hit: %+v", again)
					}
					got = waitState(t, e2, again.ID, core.JobDone)
				case got.State == core.JobDone:
					// Settled on disk: on the first write or on a retry.
				case got.State.Terminal():
					t.Fatalf("job settled %s after %s at put+%d: %s", got.State, kind, off, got.Error)
				default:
					got = waitState(t, e2, info.ID, core.JobDone)
				}
				if got.Verdict == nil {
					t.Fatalf("job done without a verdict after %s at put+%d", kind, off)
				}
				if b := canonBytes(t, got.Verdict); !bytes.Equal(b, want) {
					t.Errorf("verdict after %s at put+%d differs from a clean run's:\n%s\n%s", kind, off, b, want)
				}
			})
		}
	}
}

// TestRecordWriteBudget pins what a job costs on disk: a miss writes
// its record three times (submitted, started, settled), a cache hit
// once, and nothing else is written but the checkpoint log.
func TestRecordWriteBudget(t *testing.T) {
	ffs := storage.NewFaultFS(nil)
	e := faultEngine(t, t.TempDir(), ffs, 3)
	defer shutdown(t, e)
	count := func(from int) (writes, ops int) {
		for _, op := range ffs.Trace()[from:] {
			switch {
			case strings.Contains(op.Path, "job.json"):
				ops++
				if op.Name == "rename" {
					writes++
				}
			case op.Name == "create" || op.Name == "rename" || op.Name == "write":
				if !strings.Contains(op.Path, "run.ckpt") {
					t.Errorf("unexpected %s of %s", op.Name, op.Path)
				}
			}
		}
		return writes, ops
	}

	miss, err := e.Submit(quickSpec(), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, e, miss.ID, core.JobDone)
	if writes, ops := count(0); writes != 3 || ops != 3*recordOps {
		t.Errorf("a miss made %d record writes in %d ops, want 3 in %d", writes, ops, 3*recordOps)
	}

	base := ffs.Ops()
	hit, err := e.Submit(quickSpec(), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached {
		t.Fatalf("resubmission missed: %+v", hit)
	}
	if writes, ops := count(base); writes != 1 || ops != recordOps {
		t.Errorf("a hit made %d record writes in %d ops, want 1 in %d", writes, ops, recordOps)
	}
}

// TestSubmitFailureLeavesNothing fails the record write of a miss and
// of a hit: Submit errors, the job is not listed, no job or cache
// counter moves, and the next Submit succeeds. Only the storage-error
// counter records the failed write.
func TestSubmitFailureLeavesNothing(t *testing.T) {
	for _, hit := range []bool{false, true} {
		t.Run(map[bool]string{false: "miss", true: "hit"}[hit], func(t *testing.T) {
			ffs := storage.NewFaultFS(nil)
			e := faultEngine(t, t.TempDir(), ffs, 3)
			defer shutdown(t, e)
			if hit {
				info, err := e.Submit(quickSpec(), 0, false)
				if err != nil {
					t.Fatal(err)
				}
				waitState(t, e, info.ID, core.JobDone)
			}
			before, jobs := e.Metrics(), e.List()

			ffs.FailPath("job.json", storage.EIO, 0)
			if info, err := e.Submit(quickSpec(), 0, false); err == nil {
				t.Fatalf("Submit succeeded through a failed record write: %+v", info)
			}
			after := e.Metrics()
			if got := e.List(); len(got) != len(jobs) {
				t.Errorf("failed Submit left a job listed: %d jobs, want %d", len(got), len(jobs))
			}
			if _, ok := e.Get(fmt.Sprintf("j%06d", len(jobs)+1)); ok {
				t.Error("failed Submit's job answers Get")
			}
			if after.CacheHits != before.CacheHits || after.CacheMisses != before.CacheMisses ||
				after.CacheEntries != before.CacheEntries || after.QueueDepth != before.QueueDepth ||
				!reflect.DeepEqual(after.JobsByState, before.JobsByState) || len(after.Jobs) != len(before.Jobs) {
				t.Errorf("failed Submit moved the metrics:\nbefore %+v\nafter  %+v", before, after)
			}
			if after.StorageErrors != before.StorageErrors+1 {
				t.Errorf("storage errors %d -> %d, want one more", before.StorageErrors, after.StorageErrors)
			}

			next, err := e.Submit(quickSpec(), 0, false)
			if err != nil {
				t.Fatalf("Submit after the failure: %v", err)
			}
			if next.Cached != hit {
				t.Errorf("Submit after the failure: cached=%v, want %v", next.Cached, hit)
			}
			waitState(t, e, next.ID, core.JobDone)
		})
	}
}

// TestEngineRetryTransient injects a transient EIO into the record
// write that settles the job and requires the engine to retry the job
// to a correct completion: attempts counted, metrics incremented,
// /healthz degraded, verdict identical to a clean run's.
func TestEngineRetryTransient(t *testing.T) {
	ffs := storage.NewFaultFS(nil)
	ffs.FailPath("job.json", storage.EIO, settleSkip)
	e := faultEngine(t, t.TempDir(), ffs, 3)
	defer shutdown(t, e)

	info, err := e.Submit(quickSpec(), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, e, info.ID, core.JobDone)
	if done.Attempts < 1 {
		t.Errorf("job settled with attempts=%d; the injected EIO should have forced a retry", done.Attempts)
	}
	if done.Verdict == nil {
		t.Fatal("no verdict after retry")
	}

	ref, _, err := core.RunJob(quickSpec(), core.JobRun{})
	if err != nil {
		t.Fatal(err)
	}
	if done.Verdict.States != ref.States || done.Verdict.Depth != ref.Depth ||
		done.Verdict.Verdict != ref.Status() {
		t.Errorf("retried verdict differs from clean run: got %s %d@%d, want %s %d@%d",
			done.Verdict.Verdict, done.Verdict.States, done.Verdict.Depth,
			ref.Status(), ref.States, ref.Depth)
	}

	m := e.Metrics()
	if m.JobRetries < 1 {
		t.Errorf("JobRetries = %d, want >= 1", m.JobRetries)
	}
	if m.StorageErrors < 1 {
		t.Errorf("StorageErrors = %d, want >= 1", m.StorageErrors)
	}
	h := e.Healthz()
	if h.Status != "ok" {
		t.Errorf("Healthz.Status = %q; storage trouble must not fail liveness", h.Status)
	}
	if h.Storage != "degraded" || h.StorageError == "" {
		t.Errorf("Healthz after injected EIO: storage=%q error=%q, want degraded with a message",
			h.Storage, h.StorageError)
	}
}

// verdictEIO fails every rename that would install a job record
// carrying a verdict: no job can settle done.
type verdictEIO struct{ storage.FS }

func (f verdictEIO) Rename(oldpath, newpath string) error {
	if b, err := storage.ReadFile(f.FS, oldpath); err == nil && bytes.Contains(b, []byte(`"verdict"`)) {
		return &os.PathError{Op: "rename", Path: oldpath, Err: syscall.EIO}
	}
	return f.FS.Rename(oldpath, newpath)
}

// TestRetryBudgetExhausted pins the other side of the policy: a
// storage fault that never clears fails the job loudly once the
// attempt budget is spent, instead of retrying forever.
func TestRetryBudgetExhausted(t *testing.T) {
	e := faultEngine(t, t.TempDir(), verdictEIO{storage.OSFS{}}, 2)
	defer shutdown(t, e)

	info, err := e.Submit(quickSpec(), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	failed := waitFor(t, e, info.ID, "failed", func(i JobInfo) bool {
		return i.State == core.JobFailed
	})
	if failed.Error == "" {
		t.Error("failed job carries no error message")
	}
	if failed.Attempts != 1 {
		t.Errorf("attempts = %d, want 1 (MaxAttempts 2 = one retry)", failed.Attempts)
	}
	if failed.Verdict != nil {
		t.Error("failed job carries a verdict")
	}
}

// TestTmpSweep plants stale atomic-write staging files — the debris a
// crash mid-write leaves — in two job directories, and requires engine
// startup to quarantine (not delete) every one.
func TestTmpSweep(t *testing.T) {
	dir := t.TempDir()
	jobDirs := []string{filepath.Join(dir, "jobs", "j000001"), filepath.Join(dir, "jobs", "j000002")}
	for _, d := range jobDirs {
		if err := os.MkdirAll(d, 0o777); err != nil {
			t.Fatal(err)
		}
	}
	stale := []string{
		filepath.Join(jobDirs[0], "job.json.tmp"),
		filepath.Join(jobDirs[0], ".job.json.tmp424242"), // legacy CreateTemp pattern
		filepath.Join(jobDirs[1], "run.ckpt.tmp"),
	}
	for _, p := range stale {
		if err := os.WriteFile(p, []byte("{\"torn\":"), 0o666); err != nil {
			t.Fatal(err)
		}
	}

	e := newEngine(t, dir)
	defer shutdown(t, e)

	if m := e.Metrics(); m.TmpSwept != int64(len(stale)) {
		t.Errorf("TmpSwept = %d, want %d", m.TmpSwept, len(stale))
	}
	for _, p := range stale {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("stale staging file still in place: %s", p)
		}
		q := filepath.Join(filepath.Dir(p), "quarantine", filepath.Base(p))
		if _, err := os.Stat(q); err != nil {
			t.Errorf("stale staging file not quarantined at %s: %v", q, err)
		}
	}
}

// TestFlakyProxyRetry is the flaky-network acceptance test: a proxy in
// front of the engine drops about a third of all requests — some
// rejected before they reach the engine, and, crucially, the very
// first Submit processed and then dropped on the response path. The
// client's retry budget must settle the correct verdict, and the
// fingerprint-coalescing on resubmit must prevent any duplicate
// execution.
func TestFlakyProxyRetry(t *testing.T) {
	e := newEngine(t, t.TempDir())
	defer shutdown(t, e)
	h := e.Handler()

	var n atomic.Int64
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i := n.Add(1)
		switch {
		case i == 1:
			// Worst case for idempotency: the engine processes the
			// Submit, then the response is lost on the wire.
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			panic(http.ErrAbortHandler)
		case i%3 == 0:
			writeError(w, http.StatusServiceUnavailable, "injected drop")
		default:
			h.ServeHTTP(w, r)
		}
	}))
	defer proxy.Close()

	cli := &Client{
		Base:    proxy.URL,
		Timeout: 5 * time.Second,
		Retry:   RetryPolicy{MaxAttempts: 8, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond},
	}
	ctx := context.Background()
	info, err := cli.Submit(ctx, quickSpec(), 0)
	if err != nil {
		t.Fatalf("submit through flaky proxy: %v", err)
	}
	done, err := cli.Wait(ctx, info.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("wait through flaky proxy: %v", err)
	}
	if done.State != core.JobDone || done.Verdict == nil {
		t.Fatalf("job did not settle: %+v", done)
	}

	// Correctness and no-duplicate-execution, against a clean run.
	ref, _, err := core.RunJob(quickSpec(), core.JobRun{})
	if err != nil {
		t.Fatal(err)
	}
	if done.Verdict.States != ref.States || done.Verdict.Verdict != ref.Status() {
		t.Errorf("verdict through flaky proxy: got %s %d states, want %s %d",
			done.Verdict.Verdict, done.Verdict.States, ref.Status(), ref.States)
	}
	// The retried Submit either coalesces with the in-flight job or —
	// if the first copy already settled — comes back as a cache hit.
	// Both are fine; what must never happen is a second real execution.
	executed := 0
	for _, j := range e.List() {
		if !j.Cached {
			executed++
		}
	}
	if executed != 1 {
		t.Errorf("retried submit left %d non-cached jobs; coalescing should leave exactly 1", executed)
	}
	if m := e.Metrics(); m.StatesExplored != int64(ref.States) {
		t.Errorf("engine explored %d states for a %d-state job — a dropped Submit was re-executed",
			m.StatesExplored, ref.States)
	}
	if n.Load() < 4 {
		t.Errorf("proxy saw only %d requests; the retry path was not exercised", n.Load())
	}
}

// TestClientTimeout pins that a daemon that accepts connections and
// then hangs cannot wedge the client: each attempt is bounded by
// Timeout and the overall call returns within the retry budget.
func TestClientTimeout(t *testing.T) {
	hang := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-hang
	}))
	defer srv.Close()
	defer close(hang)

	cli := &Client{
		Base:    srv.URL,
		Timeout: 100 * time.Millisecond,
		Retry:   RetryPolicy{MaxAttempts: 2, BaseDelay: 10 * time.Millisecond, MaxDelay: 10 * time.Millisecond},
	}
	start := time.Now()
	_, err := cli.Health(context.Background())
	if err == nil {
		t.Fatal("Health against a hung daemon reported success")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("client took %s to give up on a hung daemon; per-attempt timeout is not biting", elapsed)
	}
}

// TestClientStreamIdle pins the stream watchdog: a progress stream
// that goes silent mid-job is killed after StreamIdleTimeout and the
// result recovered by polling, so gcmc -remote cannot hang on a
// wedged daemon.
func TestClientStreamIdle(t *testing.T) {
	const id = "j000001"
	running := JobInfo{ID: id, State: core.JobRunning}
	terminal := JobInfo{ID: id, State: core.JobDone, Verdict: &verdict.Record{Verdict: "no-violation"}}

	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/"+id+"/stream", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		json.NewEncoder(w).Encode(running)
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		<-r.Context().Done() // one line, then silence
	})
	mux.HandleFunc("GET /v1/jobs/"+id, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, terminal)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	cli := &Client{
		Base:              srv.URL,
		Timeout:           2 * time.Second,
		StreamIdleTimeout: 150 * time.Millisecond,
	}
	start := time.Now()
	got, err := cli.Stream(context.Background(), id, nil)
	if err != nil {
		t.Fatalf("Stream did not recover from a silent stream: %v", err)
	}
	if got.State != core.JobDone {
		t.Errorf("Stream settled state %s, want %s", got.State, core.JobDone)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("Stream took %s; the idle watchdog is not biting", elapsed)
	}
}
