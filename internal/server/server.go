// Package server turns the model checker into a long-running
// verification service: an HTTP/JSON daemon (cmd/gcmcd) that accepts
// verification jobs (core.JobSpec: preset + ablations + options), runs
// them on a bounded worker pool with per-job memory budgets, streams
// progress as NDJSON, and persists every job under a managed data
// directory.
//
// # Durability
//
// A job is one record: its spec, state and times and, once it is done,
// its verdict, with a CRC-32 that recovery checks. The record is
// written atomically at every state transition, so a verdict is on disk
// exactly when its job is done. Every job also checkpoints at the
// checker's layer barriers (internal/checkpoint) into its own job
// directory, so a daemon that crashes — or is SIGKILLed — mid-job
// resumes in-flight work on restart: jobs found non-terminal are
// re-enqueued, resuming from their latest checkpoint when one exists,
// and the resumed run's verdict is byte-identical (in canonical form,
// see verdict.Record.Canonical) to an uninterrupted run's. A record
// that fails its checksum is logged and skipped: never listed, never
// reused.
//
// Every run goes through core.RunJob, which resumes exactly the
// checkpoint it is given. The recovery policy is the engine's (runJob):
// a transient storage error requeues the job under the retry policy
// with its checkpoint untouched; a checkpoint the resume refuses is
// renamed run.ckpt.poisoned and the job starts fresh. Nothing is
// deleted.
//
// The job table is the verdict cache. A submission whose options
// fingerprint (core.Fingerprint — the same fingerprint the checkpoint
// layer validates on resume) matches a done job's returns that job's
// verdict at once, as a new done job, with zero new states explored. A
// run the memory budget stopped is not reused: the fingerprint leaves
// the budget out.
//
// # Layout
//
//	<data>/jobs/<id>/job.json     job record (spec, state, times, verdict; CRC-checked)
//	<data>/jobs/<id>/run.ckpt     layer-barrier checkpoint log (GCMCCKP1)
//	<data>/jobs/<id>/run.ckpt.poisoned  a checkpoint the resume refused
//
// # Corpus mode
//
// EnqueueCorpus enumerates the full preset x ablation x {TSO,SC}
// matrix as low-priority background jobs, so the whole catalogue stays
// continuously verified while interactive submissions jump the queue.
package server

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/storage"
	"repro/internal/verdict"
)

// Options configures an Engine.
type Options struct {
	// DataDir is the managed data directory (created if missing).
	DataDir string
	// Workers is the number of concurrent verification jobs (default 1;
	// each job additionally runs its own checker goroutines per
	// core.JobOptions.Workers).
	Workers int
	// CheckpointEvery is the default snapshot cadence in BFS layers for
	// jobs that do not set one (default 4 — tighter than the CLI's 16,
	// because a service's whole point is cheap recovery).
	CheckpointEvery int
	// MemBudgetMiB is the default per-job soft heap budget for jobs
	// that do not set one (0 = none).
	MemBudgetMiB int
	// CorpusMaxStates caps each corpus cell's exploration (default
	// 50000) so the background matrix stays tractable.
	CorpusMaxStates int
	// CorpusPresets restricts the corpus matrix to these presets
	// (nil = every shipped preset).
	CorpusPresets []string
	// FS routes every byte of the engine's disk I/O — job records and
	// checkpoint logs — through a pluggable filesystem;
	// nil means the real one. Fault injection (storage.FaultFS) plugs in
	// here.
	FS storage.FS
	// Retry governs transient-storage-failure re-enqueues (zero value =
	// 3 attempts, 250ms base, 10s cap).
	Retry RetryPolicy
	// Log receives service events (nil = discard).
	Log *log.Logger
}

// Engine is the verification service: a job queue, a worker pool, and
// the on-disk job table, which is also the verdict cache. It is safe
// for concurrent use; Handler exposes it over HTTP.
type Engine struct {
	opt   Options     // gcrt:guard immutable
	log   *log.Logger // gcrt:guard immutable
	start time.Time   // gcrt:guard immutable
	fs    storage.FS  // gcrt:guard immutable
	retry RetryPolicy // gcrt:guard immutable

	mu     sync.Mutex      // gcrt:guard atomic
	cond   *sync.Cond      // gcrt:guard immutable
	jobs   map[string]*job // gcrt:guard by(mu)
	queue  jobQueue        // gcrt:guard by(mu)
	seq    int             // gcrt:guard by(mu)
	pushes int             // queue-insertion tiebreaker; gcrt:guard by(mu)
	closed bool            // gcrt:guard by(mu)
	wg     sync.WaitGroup  // gcrt:guard atomic

	cacheHits, cacheMisses int64        // gcrt:guard by(mu)
	statesExplored         int64        // gcrt:guard by(mu)
	corpusCells            []CorpusCell // memoized matrix; gcrt:guard by(mu)

	tmpSwept       int64     // staging files quarantined at startup; gcrt:guard by(mu)
	storageErrors  int64     // disk failures observed; gcrt:guard by(mu)
	jobRetries     int64     // transient-failure re-enqueues; gcrt:guard by(mu)
	lastStorageErr time.Time // drives the /healthz degraded window; gcrt:guard by(mu)
	lastStorageMsg string    // gcrt:guard by(mu)
}

// job is the engine-internal job state. Identity fields freeze when
// Submit (or crash recovery) publishes the job, and workers read them
// unlocked; the mutable run state is guarded by Engine.mu.
type job struct {
	id        string                    // gcrt:guard immutable(Engine.submit, Engine.recover)
	spec      core.JobSpec              // gcrt:guard immutable(Engine.submit, Engine.recover)
	fp        uint64                    // gcrt:guard immutable(Engine.submit, Engine.recover)
	state     core.JobState             // gcrt:guard by(Engine.mu)
	priority  int                       // gcrt:guard immutable(Engine.submit, Engine.recover)
	corpus    bool                      // gcrt:guard immutable(Engine.submit, Engine.recover)
	unchecked bool                      // record had no checksum: listed, never reused; gcrt:guard immutable(Engine.recover)
	cached    bool                      // gcrt:guard by(Engine.mu)
	resumed   bool                      // gcrt:guard by(Engine.mu)
	cancelReq bool                      // gcrt:guard by(Engine.mu)
	pushSeq   int                       // gcrt:guard by(Engine.mu)
	submitted time.Time                 // gcrt:guard immutable(Engine.submit, Engine.recover)
	started   time.Time                 // gcrt:guard by(Engine.mu)
	finished  time.Time                 // gcrt:guard by(Engine.mu)
	progress  *ProgressInfo             // gcrt:guard by(Engine.mu)
	lastState int                       // gcrt:guard by(Engine.mu)
	errMsg    string                    // gcrt:guard by(Engine.mu)
	verdict   *verdict.Record           // gcrt:guard by(Engine.mu)
	cancel    context.CancelFunc        // gcrt:guard by(Engine.mu)
	attempts  int                       // transient-failure retries so far; gcrt:guard by(Engine.mu)
	subs      map[chan JobInfo]struct{} // gcrt:guard by(Engine.mu)
}

// New opens (or creates) the data directory, recovers persisted jobs —
// re-enqueueing any that were queued, running or interrupted when the
// previous process died — and starts the worker pool.
func New(opt Options) (*Engine, error) {
	if opt.DataDir == "" {
		return nil, fmt.Errorf("server: DataDir is required")
	}
	if opt.Workers <= 0 {
		opt.Workers = 1
	}
	if opt.CheckpointEvery <= 0 {
		opt.CheckpointEvery = 4
	}
	if opt.CorpusMaxStates <= 0 {
		opt.CorpusMaxStates = 50000
	}
	lg := opt.Log
	if lg == nil {
		lg = log.New(io.Discard, "", 0)
	}
	fsys := storage.OrOS(opt.FS)
	for _, d := range []string{opt.DataDir, filepath.Join(opt.DataDir, "jobs")} {
		if err := fsys.MkdirAll(d); err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
	}
	e := &Engine{
		opt:   opt,
		log:   lg,
		start: time.Now(),
		fs:    fsys,
		retry: opt.Retry.withDefaults(3, 250*time.Millisecond, 10*time.Second),
		jobs:  make(map[string]*job),
	}
	e.cond = sync.NewCond(&e.mu)
	if err := e.recover(); err != nil {
		return nil, err
	}
	for i := 0; i < opt.Workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e, nil
}

// Build reports the engine's build identity (also in /healthz).
func (e *Engine) Build() string { return buildinfo.String() }

// jobDir and jobFile name the on-disk layout.
func (e *Engine) jobDir(id string) string { return filepath.Join(e.opt.DataDir, "jobs", id) }
func (e *Engine) jobFile(id, name string) string {
	return filepath.Join(e.jobDir(id), name)
}

// normalize applies the engine defaults a spec did not set. Neither
// field enters the options fingerprint, so defaults never change which
// settled job a spec matches.
func (e *Engine) normalize(spec core.JobSpec) core.JobSpec {
	if spec.Options.CheckpointEvery <= 0 {
		spec.Options.CheckpointEvery = e.opt.CheckpointEvery
	}
	if spec.Options.MemBudgetMiB <= 0 {
		spec.Options.MemBudgetMiB = e.opt.MemBudgetMiB
	}
	return spec
}

// Submit validates the spec and scans the job table once: a queued or
// running job with the same fingerprint is coalesced (its record is
// returned instead of a duplicate being enqueued); a settled one whose
// verdict can be reused mints a done cache-hit job; otherwise a new run
// is enqueued. Either new job is published only once its record is on
// disk, so a failed Submit leaves no job and moves no counter.
func (e *Engine) Submit(spec core.JobSpec, priority int, corpus bool) (JobInfo, error) {
	info, _, err := e.submit(spec, priority, corpus)
	return info, err
}

// submit is Submit, also reporting whether it enqueued a new run.
func (e *Engine) submit(spec core.JobSpec, priority int, corpus bool) (JobInfo, bool, error) {
	spec = e.normalize(spec)
	fp, _, err := spec.Fingerprint()
	if err != nil {
		return JobInfo{}, false, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return JobInfo{}, false, fmt.Errorf("server: shutting down")
	}
	var hit *job
	for _, j := range e.jobs {
		if j.fp != fp {
			continue
		}
		if !j.state.Terminal() {
			return e.infoLocked(j), false, nil
		}
		if hit == nil && reusableLocked(j) {
			hit = j
		}
	}
	j := &job{
		spec:      spec,
		fp:        fp,
		priority:  priority,
		corpus:    corpus,
		state:     core.JobQueued,
		submitted: time.Now(),
		subs:      make(map[chan JobInfo]struct{}),
	}
	e.seq++
	j.id = fmt.Sprintf("j%06d", e.seq)
	if hit != nil {
		rec := *hit.verdict
		rec.Cached = true
		j.state = core.JobDone
		j.cached = true
		j.verdict = &rec
		j.finished = j.submitted
	}
	if err := e.persistLocked(j); err != nil {
		return JobInfo{}, false, err
	}
	e.jobs[j.id] = j
	if hit != nil {
		e.cacheHits++
		e.log.Printf("job %s: cache hit from %s (fp %016x, %s)", j.id, hit.id, fp, spec.Preset)
		return e.infoLocked(j), false, nil
	}
	e.cacheMisses++
	e.pushLocked(j)
	e.log.Printf("job %s: queued (fp %016x, %s prio %d)", j.id, fp, spec.Preset, priority)
	return e.infoLocked(j), true, nil
}

// reusableLocked reports whether j's verdict answers every later
// submission of its fingerprint: j is done, its record was checksummed,
// and the memory budget did not stop it (the fingerprint leaves the
// budget out, so that verdict would answer the same spec under any
// budget).
func reusableLocked(j *job) bool {
	return j.state == core.JobDone && j.verdict != nil && !j.unchecked &&
		!j.verdict.StoppedOn(explore.StopMemBudget)
}

// pushLocked enqueues j and wakes a worker.
func (e *Engine) pushLocked(j *job) {
	e.pushes++
	j.pushSeq = e.pushes
	heap.Push(&e.queue, j)
	e.cond.Signal()
}

// Get returns a job snapshot.
func (e *Engine) Get(id string) (JobInfo, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	if !ok {
		return JobInfo{}, false
	}
	return e.infoLocked(j), true
}

// List returns snapshots of every job, newest first.
func (e *Engine) List() []JobInfo {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]JobInfo, 0, len(e.jobs))
	for _, j := range e.jobs {
		out = append(out, e.infoLocked(j))
	}
	sortJobs(out)
	return out
}

// Cancel stops a job: a queued job is cancelled in place, a running one
// has its context cancelled (the checker finishes its current layer,
// writes a final checkpoint, and the job lands in the cancelled state).
// Cancelling a terminal job is a no-op.
func (e *Engine) Cancel(id string) (JobInfo, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	if !ok {
		return JobInfo{}, fmt.Errorf("server: no job %q", id)
	}
	if j.state.Terminal() {
		return e.infoLocked(j), nil
	}
	j.cancelReq = true
	switch j.state {
	case core.JobQueued, core.JobResuming, core.JobInterrupted:
		j.state = core.JobCancelled
		j.finished = time.Now()
		if err := e.persistLocked(j); err != nil {
			return JobInfo{}, err
		}
		e.notifyLocked(j)
	case core.JobRunning:
		if j.cancel != nil {
			j.cancel()
		}
	}
	return e.infoLocked(j), nil
}

// Subscribe returns a channel of progress snapshots for the job; the
// channel closes when the job reaches a terminal state (or the
// subscription is cancelled). ok is false for unknown jobs.
func (e *Engine) Subscribe(id string) (<-chan JobInfo, func(), bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	if !ok {
		return nil, nil, false
	}
	ch := make(chan JobInfo, 16)
	if j.state.Terminal() {
		close(ch)
		return ch, func() {}, true
	}
	j.subs[ch] = struct{}{}
	cancel := func() {
		e.mu.Lock()
		defer e.mu.Unlock()
		if _, live := j.subs[ch]; live {
			delete(j.subs, ch)
			close(ch)
		}
	}
	return ch, cancel, true
}

// CachedVerdict returns the verdict a submission of the fingerprint
// (hex) would be served from the job table.
func (e *Engine) CachedVerdict(fpHex string) (*verdict.Record, bool) {
	var fp uint64
	if _, err := fmt.Sscanf(fpHex, "%x", &fp); err != nil {
		return nil, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, j := range e.jobs {
		if j.fp == fp && reusableLocked(j) {
			rec := *j.verdict
			rec.Cached = true
			return &rec, true
		}
	}
	return nil, false
}

// Shutdown stops the engine gracefully: intake closes, every running
// job's context is cancelled (the checker finishes its current layer
// and writes a final checkpoint), and the workers drain. Interrupted
// jobs persist in the interrupted state and resume on the next start.
func (e *Engine) Shutdown(ctx context.Context) error {
	e.mu.Lock()
	e.closed = true
	for _, j := range e.jobs {
		if j.state == core.JobRunning && j.cancel != nil {
			j.cancel()
		}
	}
	e.cond.Broadcast()
	e.mu.Unlock()
	done := make(chan struct{})
	go func() {
		defer func() {
			if r := recover(); r != nil {
				e.log.Printf("shutdown: waiter panic: %v", r)
			}
		}()
		e.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: shutdown: %w", ctx.Err())
	}
}

// recover loads persisted jobs from the data directory and re-enqueues
// every non-terminal one — the crash-recovery path. A job with a
// checkpoint resumes from it (state "resuming"); one killed before its
// first snapshot restarts from scratch (state "queued"). A record that
// fails its checksum is logged and skipped, but its id stays taken.
func (e *Engine) recover() error {
	dirs, err := e.fs.ReadDir(filepath.Join(e.opt.DataDir, "jobs"))
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		id := d.Name()
		if n, err := sweepTmp(e.fs, e.jobDir(id)); err != nil {
			e.log.Printf("recover: sweep %s: %v", id, err)
		} else if n > 0 {
			e.tmpSwept += int64(n)
			e.log.Printf("recover: %s: quarantined %d stale staging file(s)", id, n)
		}
		if n := numericSuffix(id); n > e.seq {
			e.seq = n
		}
		pj, unchecked, err := readJobRecord(e.fs, e.jobFile(id, "job.json"))
		if err != nil {
			e.log.Printf("recover: skipping %s: %v", id, err)
			continue
		}
		spec := e.normalize(pj.Spec)
		fp, _, err := spec.Fingerprint()
		if err != nil {
			e.log.Printf("recover: skipping %s: %v", id, err)
			continue
		}
		j := &job{
			id:        id,
			spec:      spec,
			fp:        fp,
			state:     pj.State,
			priority:  pj.Priority,
			corpus:    pj.Corpus,
			cached:    pj.Cached,
			resumed:   pj.Resumed,
			submitted: pj.Submitted,
			started:   pj.Started,
			finished:  pj.Finished,
			errMsg:    pj.Error,
			verdict:   pj.Verdict,
			subs:      make(map[chan JobInfo]struct{}),
		}
		if j.state.Terminal() {
			// A verdict read from an unchecksummed record is shown,
			// never reused; the record itself is left as it is.
			j.unchecked = unchecked
			e.jobs[id] = j
			continue
		}
		// Non-terminal: the previous process died (or was killed) with
		// this job in flight. Re-enqueue it, resuming from the latest
		// checkpoint when one survived.
		if _, err := e.fs.Stat(e.jobFile(id, "run.ckpt")); err == nil {
			j.state = core.JobResuming
		} else {
			j.state = core.JobQueued
		}
		e.jobs[id] = j
		if err := e.persistLocked(j); err != nil {
			return err
		}
		e.pushLocked(j)
		e.log.Printf("recover: %s re-enqueued as %s (fp %016x)", id, j.state, fp)
	}
	return nil
}

// numericSuffix parses the numeric part of a jNNNNNN id (0 otherwise).
func numericSuffix(id string) int {
	var n int
	if _, err := fmt.Sscanf(id, "j%d", &n); err != nil {
		return 0
	}
	return n
}

// worker runs jobs until the engine closes.
func (e *Engine) worker() {
	defer e.wg.Done()
	// A panic on the job path must not shrink the worker pool for the
	// daemon's remaining lifetime: log it and spawn a replacement
	// (runJob settles the job record itself; this guard is the backstop
	// for panics outside it). The wg.Add happens before this goroutine's
	// deferred Done, so Shutdown's Wait cannot release early.
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		e.log.Printf("worker: recovered panic: %v", r)
		e.mu.Lock()
		respawn := !e.closed
		if respawn {
			e.wg.Add(1)
		}
		e.mu.Unlock()
		if respawn {
			go e.worker()
		}
	}()
	for {
		e.mu.Lock()
		for !e.closed && e.queue.Len() == 0 {
			e.cond.Wait()
		}
		if e.closed {
			e.mu.Unlock()
			return
		}
		j := heap.Pop(&e.queue).(*job)
		if j.state != core.JobQueued && j.state != core.JobResuming {
			// Cancelled while queued; nothing to run.
			e.mu.Unlock()
			continue
		}
		ctx, cancel := context.WithCancel(context.Background())
		j.cancel = cancel
		j.state = core.JobRunning
		j.started = time.Now()
		perr := e.persistLocked(j)
		e.notifyLocked(j)
		e.mu.Unlock()
		if perr != nil {
			e.log.Printf("job %s: persist: %v", j.id, perr)
		}
		e.runJob(ctx, j)
		cancel()
	}
}

// runJob executes one job through core.RunJob, resuming from the job's
// checkpoint when one is on disk, and settles its terminal (or
// interrupted) state. It owns the recovery policy: a transient error
// requeues the job with the checkpoint untouched, and a refused
// checkpoint is quarantined (poison) before the job starts fresh.
func (e *Engine) runJob(ctx context.Context, j *job) {
	// Settle the job even if a panic escapes the checker's own
	// containment (explore.StopPanic): a job left in the running state
	// would hold its subscribers open forever and never persist.
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		e.mu.Lock()
		defer e.mu.Unlock()
		j.state = core.JobFailed
		j.errMsg = fmt.Sprintf("panic: %v", r)
		j.finished = time.Now()
		if err := e.persistLocked(j); err != nil {
			e.log.Printf("job %s: persist: %v", j.id, err)
		}
		e.notifyLocked(j)
		e.log.Printf("job %s: failed on recovered panic: %v", j.id, r)
	}()
	e.log.Printf("job %s: running (%s %s)", j.id, j.spec.Preset, j.spec.Ablations)
	ckpt := e.jobFile(j.id, "run.ckpt")
	run := core.JobRun{
		CheckpointPath: ckpt,
		Context:        ctx,
		Progress:       func(p core.Progress) { e.onProgress(j, p) },
		// Stream subscribers want reports well before the checker's
		// 8192-state default on small jobs.
		ProgressEvery: 500,
		FS:            e.fs,
	}
	// Resume from the job's checkpoint unless there is none: a job
	// killed before its first snapshot starts fresh. A checkpoint that
	// cannot even be statted is left to the resume to report.
	if _, err := e.fs.Stat(ckpt); !errors.Is(err, fs.ErrNotExist) {
		run.Resume = ckpt
	}
	res, resumed, err := core.RunJob(j.spec, run)
	if err != nil && run.Resume != "" && !storage.IsTransient(err) {
		// The checkpoint is refused (damaged, or from another format):
		// it must not wedge the job. Quarantine it — the evidence
		// outlives the recovery — and start from the initial state. A
		// transient error instead takes the retry path below with the
		// checkpoint untouched.
		refused := err
		var poisoned string
		if poisoned, err = e.poison(ckpt); err == nil {
			e.log.Printf("job %s: checkpoint refused, renamed %s; starting fresh: %v", j.id, filepath.Base(poisoned), refused)
			run.Resume = ""
			res, resumed, err = core.RunJob(j.spec, run)
		}
	}

	if res.ResumeDropped > 0 {
		e.log.Printf("job %s: resume dropped %d torn checkpoint segment(s)", j.id, res.ResumeDropped)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	j.resumed = j.resumed || resumed
	if n := res.States - j.lastState; n > 0 {
		e.statesExplored += int64(n)
		j.lastState = res.States
	}
	switch {
	case err != nil:
		if storage.IsTransient(err) {
			e.noteStorageErrorLocked(err)
			if e.requeueLocked(j, err) {
				return
			}
		}
		j.state = core.JobFailed
		j.errMsg = err.Error()
	case res.Stopped == explore.StopInterrupted:
		if j.cancelReq {
			j.state = core.JobCancelled
		} else {
			// Engine shutdown: the final checkpoint is on disk and the
			// job resumes on the next start.
			j.state = core.JobInterrupted
		}
	case res.Stopped == explore.StopPanic:
		j.state = core.JobFailed
		j.errMsg = res.Err.Error()
	case res.Stopped == explore.StopSpill:
		// The disk-spill rung failed mid-run: the exploration is
		// incomplete and cannot settle a verdict. A transient disk
		// re-enqueues, and the job resumes from the latest cut in its
		// run.ckpt, which a spilled run keeps writing; a permanent one
		// fails loudly.
		e.noteStorageErrorLocked(res.Err)
		if storage.IsTransient(res.Err) && e.requeueLocked(j, res.Err) {
			return
		}
		j.state = core.JobFailed
		j.errMsg = res.Err.Error()
	default:
		rec := verdict.New(j.spec.Preset, j.spec.Ablations, j.fp, res)
		rec.Build = buildinfo.String()
		j.state = core.JobDone
		j.verdict = &rec
	}
	j.finished = time.Now()
	if err := e.persistLocked(j); err != nil {
		e.log.Printf("job %s: persist: %v", j.id, err)
		if j.state == core.JobDone {
			// A verdict that cannot be persisted is not settled: the
			// whole point of the service is durable verdicts. Transient
			// failures re-enqueue (the run resumes from its final
			// checkpoint, or replays — either way the verdict is
			// recomputed identically); a permanent one fails the job.
			j.verdict, j.finished = nil, time.Time{}
			if storage.IsTransient(err) && e.requeueLocked(j, err) {
				return
			}
			j.state, j.errMsg, j.finished = core.JobFailed, err.Error(), time.Now()
			if err := e.persistLocked(j); err != nil {
				e.log.Printf("job %s: persist: %v", j.id, err)
			}
		}
	}
	e.notifyLocked(j)
	e.log.Printf("job %s: %s (%d states, resumed=%v, attempts=%d)", j.id, j.state, res.States, j.resumed, j.attempts)
}

// poison renames a refused checkpoint out of the resume path, to
// <path>.poisoned, or <path>.poisoned.N when earlier ones are there:
// nothing is deleted. It returns the new name.
func (e *Engine) poison(path string) (string, error) {
	dst := path + ".poisoned"
	for n := 1; ; n++ {
		_, err := e.fs.Stat(dst)
		if errors.Is(err, fs.ErrNotExist) {
			break
		}
		if err != nil {
			return "", err
		}
		dst = fmt.Sprintf("%s.poisoned.%d", path, n)
	}
	return dst, e.fs.Rename(path, dst)
}

// requeueLocked re-enqueues a job after a transient storage failure:
// attempts increments, the job goes back to queued, and a backoff timer
// pushes it onto the heap when the delay elapses. Returns false when
// the retry budget is spent, the engine is closing, or the job was
// cancelled — the caller then settles the job as failed.
func (e *Engine) requeueLocked(j *job, cause error) bool {
	if e.closed || j.cancelReq {
		return false
	}
	if j.attempts+1 >= e.retry.MaxAttempts {
		e.log.Printf("job %s: retry budget spent (%d attempts): %v", j.id, j.attempts+1, cause)
		return false
	}
	j.attempts++
	j.state = core.JobQueued
	e.jobRetries++
	delay := e.retry.Backoff(j.attempts)
	if err := e.persistLocked(j); err != nil {
		e.log.Printf("job %s: persist: %v", j.id, err)
	}
	e.notifyLocked(j)
	e.log.Printf("job %s: transient storage failure (attempt %d/%d, retrying in %s): %v",
		j.id, j.attempts, e.retry.MaxAttempts, delay.Round(time.Millisecond), cause)
	time.AfterFunc(delay, func() {
		e.mu.Lock()
		defer e.mu.Unlock()
		// The job may have been cancelled (or the engine shut down)
		// while the timer ran; a queued-state check keeps the push
		// honest — and a shutdown leaves the persisted queued record
		// for the next start's recovery.
		if e.closed || j.state != core.JobQueued {
			return
		}
		e.pushLocked(j)
	})
	return true
}

// onProgress publishes a checker progress report to the job record,
// the engine counters, and every stream subscriber.
func (e *Engine) onProgress(j *job, p core.Progress) {
	e.mu.Lock()
	j.progress = &ProgressInfo{
		States:      p.States,
		Transitions: p.Transitions,
		Depth:       p.Depth,
		Frontier:    p.Frontier,
		ElapsedSec:  p.Elapsed.Seconds(),
	}
	if n := p.States - j.lastState; n > 0 {
		e.statesExplored += int64(n)
		j.lastState = p.States
	}
	info := e.infoLocked(j)
	subs := make([]chan JobInfo, 0, len(j.subs))
	for ch := range j.subs {
		subs = append(subs, ch)
	}
	e.mu.Unlock()
	for _, ch := range subs {
		select {
		case ch <- info:
		default: // slow subscriber: drop the intermediate report
		}
	}
}

// notifyLocked publishes a state transition; terminal transitions close
// every subscription (subscribers then fetch the final record).
func (e *Engine) notifyLocked(j *job) {
	info := e.infoLocked(j)
	for ch := range j.subs {
		select {
		case ch <- info:
		default:
		}
		if j.state.Terminal() {
			delete(j.subs, ch)
			close(ch)
		}
	}
}

// persistLocked writes the job record atomically.
func (e *Engine) persistLocked(j *job) error {
	if err := e.fs.MkdirAll(e.jobDir(j.id)); err != nil {
		e.noteStorageErrorLocked(err)
		return fmt.Errorf("server: %w", err)
	}
	err := writeJobRecord(e.fs, e.jobFile(j.id, "job.json"), &persistedJob{
		ID:        j.id,
		Spec:      j.spec,
		State:     j.state,
		Priority:  j.priority,
		Corpus:    j.corpus,
		Cached:    j.cached,
		Resumed:   j.resumed,
		Submitted: j.submitted,
		Started:   j.started,
		Finished:  j.finished,
		Error:     j.errMsg,
		Verdict:   j.verdict,
	})
	if err != nil {
		e.noteStorageErrorLocked(err)
	}
	return err
}

// noteStorageErrorLocked records a disk failure for the metrics
// counters and the /healthz degraded window.
func (e *Engine) noteStorageErrorLocked(err error) {
	e.storageErrors++
	e.lastStorageErr = time.Now()
	e.lastStorageMsg = err.Error()
}

// storageDegradedWindow is how long after the last observed disk
// failure /healthz keeps reporting storage "degraded".
const storageDegradedWindow = time.Minute

// Healthz reports liveness plus storage health: a disk failure inside
// the window marks storage degraded (the process itself stays "ok" —
// it is alive and answering).
func (e *Engine) Healthz() Health {
	e.mu.Lock()
	defer e.mu.Unlock()
	h := Health{Status: "ok", Build: buildinfo.String(), Storage: "ok"}
	if !e.lastStorageErr.IsZero() && time.Since(e.lastStorageErr) < storageDegradedWindow {
		h.Storage = "degraded"
		h.StorageError = e.lastStorageMsg
	}
	return h
}

// infoLocked snapshots a job for the API.
func (e *Engine) infoLocked(j *job) JobInfo {
	info := JobInfo{
		ID:          j.id,
		State:       j.state,
		Spec:        j.spec,
		Fingerprint: fmt.Sprintf("%016x", j.fp),
		Priority:    j.priority,
		Corpus:      j.corpus,
		Cached:      j.cached,
		Resumed:     j.resumed,
		Submitted:   j.submitted,
		Attempts:    j.attempts,
		Progress:    j.progress,
		Error:       j.errMsg,
		Verdict:     j.verdict,
	}
	if !j.started.IsZero() {
		t := j.started
		info.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		info.Finished = &t
	}
	if _, err := e.fs.Stat(e.jobFile(j.id, "run.ckpt")); err == nil {
		info.HasCheckpoint = true
	}
	return info
}

// Metrics reports the service counters.
func (e *Engine) Metrics() Metrics {
	e.mu.Lock()
	defer e.mu.Unlock()
	m := Metrics{
		Build:          buildinfo.String(),
		UptimeSec:      time.Since(e.start).Seconds(),
		Workers:        e.opt.Workers,
		QueueDepth:     e.queue.Len(),
		JobsByState:    map[string]int{},
		CacheHits:      e.cacheHits,
		CacheMisses:    e.cacheMisses,
		StatesExplored: e.statesExplored,
		TmpSwept:       e.tmpSwept,
		StorageErrors:  e.storageErrors,
		JobRetries:     e.jobRetries,
	}
	if m.UptimeSec > 0 {
		m.StatesPerSec = float64(e.statesExplored) / m.UptimeSec
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.HeapAllocBytes = ms.HeapAlloc
	entries := make(map[uint64]struct{})
	for _, j := range e.jobs {
		if reusableLocked(j) {
			entries[j.fp] = struct{}{}
		}
		m.JobsByState[string(j.state)]++
		jm := JobMetric{ID: j.id, State: j.state, MemBudgetMiB: j.spec.Options.MemBudgetMiB}
		if j.progress != nil {
			jm.States = j.progress.States
		} else if j.verdict != nil {
			jm.States = j.verdict.States
		}
		m.Jobs = append(m.Jobs, jm)
	}
	m.CacheEntries = len(entries)
	sortJobMetrics(m.Jobs)
	return m
}
