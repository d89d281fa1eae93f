package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/verdict"
)

// SubmitRequest is the POST /v1/jobs body.
type SubmitRequest struct {
	Spec core.JobSpec `json:"spec"`
	// Priority orders the queue (lower runs sooner; default 0 for
	// interactive jobs, corpus background jobs use 100).
	Priority int `json:"priority,omitempty"`
}

// JobInfo is the API snapshot of one job.
type JobInfo struct {
	ID          string        `json:"id"`
	State       core.JobState `json:"state"`
	Spec        core.JobSpec  `json:"spec"`
	Fingerprint string        `json:"fingerprint"`
	Priority    int           `json:"priority"`
	Corpus      bool          `json:"corpus,omitempty"`
	// Cached marks a job satisfied entirely from the verdict cache.
	Cached bool `json:"cached,omitempty"`
	// Resumed marks a job that restarted from a checkpoint after a
	// daemon crash or shutdown.
	Resumed       bool `json:"resumed,omitempty"`
	HasCheckpoint bool `json:"has_checkpoint,omitempty"`
	// Attempts counts transient-failure retries: 0 for a job that ran
	// once, n for one re-enqueued n times by the retry policy.
	Attempts  int        `json:"attempts,omitempty"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`

	Progress *ProgressInfo   `json:"progress,omitempty"`
	Error    string          `json:"error,omitempty"`
	Verdict  *verdict.Record `json:"verdict,omitempty"`
}

// ProgressInfo is the latest checker progress report for a running job.
type ProgressInfo struct {
	States      int     `json:"states"`
	Transitions int     `json:"transitions"`
	Depth       int     `json:"depth"`
	Frontier    int     `json:"frontier"`
	ElapsedSec  float64 `json:"elapsed_sec"`
}

// Metrics is the GET /metrics body.
type Metrics struct {
	Build          string         `json:"build"`
	UptimeSec      float64        `json:"uptime_sec"`
	Workers        int            `json:"workers"`
	QueueDepth     int            `json:"queue_depth"`
	JobsByState    map[string]int `json:"jobs_by_state"`
	CacheHits      int64          `json:"cache_hits"`
	CacheMisses    int64          `json:"cache_misses"`
	CacheEntries   int            `json:"cache_entries"`
	StatesExplored int64          `json:"states_explored"`
	StatesPerSec   float64        `json:"states_per_sec"`
	HeapAllocBytes uint64         `json:"heap_alloc_bytes"`
	// TmpSwept counts stale staging files quarantined at startup (a
	// crash mid-atomic-write leaves its .tmp behind; the sweep moves
	// them aside so they can never shadow real data).
	TmpSwept int64 `json:"tmp_swept,omitempty"`
	// StorageErrors counts disk I/O failures the engine observed;
	// JobRetries counts transient-failure re-enqueues.
	StorageErrors int64       `json:"storage_errors,omitempty"`
	JobRetries    int64       `json:"job_retries,omitempty"`
	Jobs          []JobMetric `json:"jobs,omitempty"`
}

// JobMetric is the per-job slice of /metrics.
type JobMetric struct {
	ID           string        `json:"id"`
	State        core.JobState `json:"state"`
	States       int           `json:"states"`
	MemBudgetMiB int           `json:"mem_budget_mib,omitempty"`
}

// Health is the GET /healthz body. Status reports process liveness
// ("ok" whenever the daemon can answer); Storage is "ok" or "degraded"
// — degraded means a disk I/O failure was observed within the last
// minute, with StorageError carrying the most recent message.
type Health struct {
	Status       string `json:"status"`
	Build        string `json:"build"`
	Storage      string `json:"storage,omitempty"`
	StorageError string `json:"storage_error,omitempty"`
}

// persistedJob is a job's durable state: its spec, state and times,
// and once it is done, its verdict.
type persistedJob struct {
	ID        string          `json:"id"`
	Spec      core.JobSpec    `json:"spec"`
	State     core.JobState   `json:"state"`
	Priority  int             `json:"priority"`
	Corpus    bool            `json:"corpus,omitempty"`
	Cached    bool            `json:"cached,omitempty"`
	Resumed   bool            `json:"resumed,omitempty"`
	Submitted time.Time       `json:"submitted"`
	Started   time.Time       `json:"started,omitempty"`
	Finished  time.Time       `json:"finished,omitempty"`
	Error     string          `json:"error,omitempty"`
	Verdict   *verdict.Record `json:"verdict,omitempty"`
}

// jobSchema tags a checksummed job record.
const jobSchema = "gcmc.job/v2"

// jobRecord is the file jobs/<id>/job.json: the persisted job and a
// CRC-32 over its compact JSON. The file is written indented, which
// reformats the embedded job, so the checksum covers the compact form:
// it survives the round trip and still catches any content change.
type jobRecord struct {
	Schema string          `json:"schema"`
	CRC32  uint32          `json:"crc32"`
	Job    json.RawMessage `json:"job"`
}

// jobQueue is a priority heap: lower Priority first, FIFO within a
// priority level (pushSeq tiebreak).
type jobQueue []*job

func (q jobQueue) Len() int { return len(q) }
func (q jobQueue) Less(i, j int) bool {
	if q[i].priority != q[j].priority {
		return q[i].priority < q[j].priority
	}
	return q[i].pushSeq < q[j].pushSeq
}
func (q jobQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *jobQueue) Push(x any)   { *q = append(*q, x.(*job)) }
func (q *jobQueue) Pop() any {
	old := *q
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return j
}

// sortJobs orders API listings newest-first (by id, which is
// monotonic).
func sortJobs(jobs []JobInfo) {
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].ID > jobs[j].ID })
}

func sortJobMetrics(jobs []JobMetric) {
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].ID < jobs[j].ID })
}

// writeJobRecord writes a job record with the storage package's atomic
// discipline: staged tmp file, fsync, rename. Every byte goes through
// the engine's FS, so fault injection covers it; a torn rename, the one
// fault that discipline cannot stop, fails the checksum on reload.
func writeJobRecord(fsys storage.FS, path string, pj *persistedJob) error {
	raw, err := json.Marshal(pj)
	if err != nil {
		return fmt.Errorf("server: marshal %s: %w", path, err)
	}
	b, err := json.MarshalIndent(jobRecord{Schema: jobSchema, CRC32: crc32.ChecksumIEEE(raw), Job: raw}, "", "  ")
	if err != nil {
		return fmt.Errorf("server: marshal %s: %w", path, err)
	}
	if err := storage.WriteFileAtomic(fsys, path, append(b, '\n')); err != nil {
		return fmt.Errorf("server: %w", err)
	}
	return nil
}

// readJobRecord loads and checks a job record. A file without the
// schema tag was written before job records were checksummed (it is a
// bare persistedJob, with the verdict in a verdict.json beside it); it
// is read leniently and reported as unchecked.
func readJobRecord(fsys storage.FS, path string) (pj persistedJob, unchecked bool, err error) {
	b, err := storage.ReadFile(fsys, path)
	if err != nil {
		return pj, false, err
	}
	var rec jobRecord
	if err := json.Unmarshal(b, &rec); err != nil {
		return pj, false, fmt.Errorf("parse: %w", err)
	}
	if rec.Schema == "" {
		if err := json.Unmarshal(b, &pj); err != nil {
			return pj, false, fmt.Errorf("parse: %w", err)
		}
		if pj.State == core.JobDone {
			b, err := storage.ReadFile(fsys, filepath.Join(filepath.Dir(path), "verdict.json"))
			if err != nil {
				return pj, false, fmt.Errorf("done, but its verdict is unreadable: %w", err)
			}
			if err := json.Unmarshal(b, &pj.Verdict); err != nil {
				return pj, false, fmt.Errorf("verdict: %w", err)
			}
		}
		return pj, true, nil
	}
	if rec.Schema != jobSchema {
		return pj, false, fmt.Errorf("schema %q (want %q)", rec.Schema, jobSchema)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, rec.Job); err != nil {
		return pj, false, fmt.Errorf("job: %w", err)
	}
	if got := crc32.ChecksumIEEE(compact.Bytes()); got != rec.CRC32 {
		return pj, false, fmt.Errorf("crc mismatch: file says %08x, job hashes to %08x", rec.CRC32, got)
	}
	if err := json.Unmarshal(rec.Job, &pj); err != nil {
		return pj, false, fmt.Errorf("job: %w", err)
	}
	return pj, false, nil
}

// sweepTmp quarantines stale atomic-write staging files left in dir by
// a crashed process: anything with the storage.TmpSuffix (and the
// dot-prefixed CreateTemp pattern earlier builds used) is renamed into
// dir/quarantine rather than deleted — the torn bytes stay inspectable
// but can never be mistaken for data. Returns the number quarantined.
func sweepTmp(fsys storage.FS, dir string) (int, error) {
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("server: sweep %s: %w", dir, err)
	}
	n := 0
	for _, ent := range ents {
		if ent.IsDir() {
			continue
		}
		name := ent.Name()
		stale := strings.HasSuffix(name, storage.TmpSuffix) ||
			(strings.HasPrefix(name, ".") && strings.Contains(name, storage.TmpSuffix))
		if !stale {
			continue
		}
		qdir := filepath.Join(dir, "quarantine")
		if err := fsys.MkdirAll(qdir); err != nil {
			return n, fmt.Errorf("server: sweep %s: %w", dir, err)
		}
		if err := fsys.Rename(filepath.Join(dir, name), filepath.Join(qdir, name)); err != nil {
			return n, fmt.Errorf("server: sweep %s: %w", dir, err)
		}
		n++
	}
	return n, nil
}
