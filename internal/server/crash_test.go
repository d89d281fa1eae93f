package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/verdict"
)

// startDaemon launches a gcmcd binary on a fresh port against data and
// returns the command plus the client pointed at it. extra flags are
// appended (e.g. -chaos-storage for the fault-injection tests).
func startDaemon(t *testing.T, bin, data string, extra ...string) (*exec.Cmd, *Client) {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0", "-data", data, "-checkpoint-every", "1", "-q"}, extra...)
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = nil
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		cmd.Process.Kill()
		t.Fatal("daemon printed no address line")
	}
	line := sc.Text()
	const prefix = "gcmcd listening on "
	if !strings.HasPrefix(line, prefix) {
		cmd.Process.Kill()
		t.Fatalf("unexpected first line %q", line)
	}
	go func() { // drain so the daemon never blocks on stdout
		for sc.Scan() {
		}
	}()
	return cmd, NewClient("http://" + strings.TrimPrefix(line, prefix))
}

// pollJob polls over HTTP until cond holds.
func pollJob(t *testing.T, cli *Client, id, what string, cond func(JobInfo) bool) JobInfo {
	t.Helper()
	ctx := context.Background()
	deadline := time.Now().Add(120 * time.Second)
	var last JobInfo
	for time.Now().Before(deadline) {
		info, err := cli.Job(ctx, id)
		if err == nil {
			last = info
			if cond(info) {
				return info
			}
			if info.State == core.JobFailed {
				t.Fatalf("job %s failed: %s", id, info.Error)
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s (last state %s)", id, what, last.State)
	return JobInfo{}
}

// TestCrashRecovery is the durability acceptance test: SIGKILL the
// daemon between layer checkpoints, restart it on the same data
// directory, and require (a) the in-flight job resumes to completion,
// (b) its verdict is byte-identical (canonically) to an uninterrupted
// run's, and (c) a resubmission of the same spec is served from the
// cache with zero new states explored.
func TestCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real daemon")
	}
	bin := filepath.Join(t.TempDir(), "gcmcd")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/gcmcd").CombinedOutput(); err != nil {
		t.Fatalf("building gcmcd: %v\n%s", err, out)
	}
	data := t.TempDir()
	ctx := context.Background()

	// Daemon 1: submit and kill mid-run, after at least one checkpoint.
	d1, cli1 := startDaemon(t, bin, data)
	info, err := cli1.Submit(ctx, slowSpec(), 0)
	if err != nil {
		t.Fatal(err)
	}
	pollJob(t, cli1, info.ID, "mid-run checkpoint", func(i JobInfo) bool {
		return i.State == core.JobRunning && i.HasCheckpoint &&
			i.Progress != nil && i.Progress.Depth >= 8
	})
	if err := d1.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	d1.Wait()

	// Daemon 2: the job must come back and finish without intervention.
	d2, cli2 := startDaemon(t, bin, data)
	defer func() {
		d2.Process.Signal(syscall.SIGTERM)
		if err := d2.Wait(); err != nil {
			t.Errorf("daemon exited nonzero after SIGTERM: %v", err)
		}
	}()
	done := pollJob(t, cli2, info.ID, "done", func(i JobInfo) bool {
		return i.State == core.JobDone
	})
	if !done.Resumed {
		t.Error("job not marked resumed after the crash")
	}
	if done.Verdict == nil {
		t.Fatal("no verdict after recovery")
	}

	// (b) Byte-identical to an uninterrupted in-process run.
	res, _, err := core.RunJob(slowSpec(), core.JobRun{})
	if err != nil {
		t.Fatal(err)
	}
	fp, _, err := slowSpec().Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	ref := verdict.New("tiny", core.Ablations{}, fp, res)
	if got, want := canonBytes(t, done.Verdict), canonBytes(t, &ref); !bytes.Equal(got, want) {
		t.Errorf("crash-resumed verdict differs from uninterrupted run:\n--- resumed ---\n%s\n--- clean ---\n%s", got, want)
	}

	// (c) Resubmission: cache hit, zero new states.
	m1, err := cli2.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := cli2.Submit(ctx, slowSpec(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached || hit.State != core.JobDone || hit.Verdict == nil || !hit.Verdict.Cached {
		t.Fatalf("resubmission not a cache hit: %+v", hit)
	}
	m2, err := cli2.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m2.StatesExplored != m1.StatesExplored {
		t.Errorf("cache hit explored states: %d -> %d", m1.StatesExplored, m2.StatesExplored)
	}
	if m2.CacheHits < 1 {
		t.Errorf("cache hit not counted: %+v", m2)
	}
}

// TestCrashAtCheckpointSave kills the daemon AT chosen operations
// inside a checkpoint save — the create of the staging file, the
// rename that installs it, and an op deep enough to land in a later,
// appended segment —
// using FaultFS crash-points (the injected crash tears the in-flight
// write and exits 137, like SIGKILL at the worst instant). A clean
// restart on the remains must finish the job with a verdict
// byte-identical (canonically) to an uninterrupted run's.
func TestCrashAtCheckpointSave(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real daemon")
	}
	bin := filepath.Join(t.TempDir(), "gcmcd")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/gcmcd").CombinedOutput(); err != nil {
		t.Fatalf("building gcmcd: %v\n%s", err, out)
	}
	ctx := context.Background()

	// The uninterrupted reference, computed once.
	res, _, err := core.RunJob(slowSpec(), core.JobRun{})
	if err != nil {
		t.Fatal(err)
	}
	fp, _, err := slowSpec().Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	ref := verdict.New("tiny", core.Ablations{}, fp, res)
	want := canonBytes(t, &ref)

	// Skips select which run.ckpt.tmp operation dies. The first save is
	// create, write, sync, rename (0-3), and each later cut appends a
	// segment through the same handle with a write and a sync: 0 is the
	// staging file's create, 3 the first save's rename, 13 the sync of
	// the sixth checkpoint (the fifth appended segment).
	for _, skip := range []int{0, 3, 13} {
		t.Run(fmt.Sprintf("skip=%d", skip), func(t *testing.T) {
			data := t.TempDir()
			spec := fmt.Sprintf("crash@run.ckpt.tmp+%d", skip)
			d1, cli1 := startDaemon(t, bin, data, "-chaos-storage", spec)
			info, submitErr := cli1.Submit(ctx, slowSpec(), 0)
			// The crash can race the Submit response off the wire; the
			// job record itself is persisted before the response is
			// written, so recovery below still finds it.
			if submitErr != nil {
				t.Logf("submit raced the injected crash (job persisted regardless): %v", submitErr)
			}
			err := d1.Wait()
			var ee *exec.ExitError
			if !errors.As(err, &ee) || ee.ExitCode() != 137 {
				t.Fatalf("daemon exit after injected crash: %v (want exit 137)", err)
			}

			d2, cli2 := startDaemon(t, bin, data)
			defer func() {
				d2.Process.Signal(syscall.SIGTERM)
				d2.Wait()
			}()
			id := info.ID
			if id == "" {
				jobs, err := cli2.Jobs(ctx)
				if err != nil || len(jobs) != 1 {
					t.Fatalf("recovering job list: %v (%d jobs)", err, len(jobs))
				}
				id = jobs[0].ID
			}
			done := pollJob(t, cli2, id, "done", func(i JobInfo) bool {
				return i.State == core.JobDone
			})
			if done.Verdict == nil {
				t.Fatal("no verdict after crash recovery")
			}
			if got := canonBytes(t, done.Verdict); !bytes.Equal(got, want) {
				t.Errorf("verdict after crash at run.ckpt.tmp+%d differs from uninterrupted run:\n--- recovered ---\n%s\n--- clean ---\n%s",
					skip, got, want)
			}
		})
	}
}
