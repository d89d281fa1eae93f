package explore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/invariant"
	"repro/internal/storage"
)

// segmentBounds returns the offsets at which a checkpoint log's images
// start, followed by its length: image k is data[at[k]:at[k+1]].
func segmentBounds(t *testing.T, data []byte) []int {
	t.Helper()
	var at []int
	for off := 0; off < len(data); {
		at = append(at, off)
		p := off + len("GCMCCKP1")
		for {
			name, _, next, err := checkpoint.ReadSection(data, p)
			if err != nil {
				t.Fatalf("image at %d: %v", off, err)
			}
			p = next
			if name == "trailer" {
				break
			}
		}
		off = p
	}
	return append(at, len(data))
}

// loadBytes loads a checkpoint log held in memory.
func loadBytes(t *testing.T, data []byte) (*checkpoint.Snapshot, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "log.ckpt")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return checkpoint.Load(path)
}

// TestCheckpointLogIsTheSnapshot: a run that checkpoints every four
// layers writes one full image and then appends a delta segment per cut.
// Loaded, the log must be the snapshot itself — re-marshalled, byte for
// byte the single full image a run checkpointing only at the last cut
// writes, but for the count of checkpoints written. Removing a middle
// segment must make Load refuse it.
func TestCheckpointLogIsTheSnapshot(t *testing.T) {
	m := mustBuild(t, safeCfg())
	const depth = 48 // twelve cuts at a cadence of four
	for _, audit := range []bool{false, true} {
		t.Run(fmt.Sprintf("audit=%v", audit), func(t *testing.T) {
			base := Options{Workers: 1, Trace: true, HashOnly: !audit, Shards: 8, MaxDepth: depth}
			dir := t.TempDir()

			logged := base
			logged.Checkpoint = CheckpointOptions{Path: filepath.Join(dir, "log.ckpt"), EveryLayers: 4}
			res := Run(m, invariant.Safety(), logged)
			if res.Stopped != StopMaxDepth || res.Err != nil {
				t.Fatalf("logged run: stopped=%q err=%v", res.Stopped, res.Err)
			}
			once := base
			once.Checkpoint = CheckpointOptions{Path: filepath.Join(dir, "once.ckpt"), EveryLayers: depth}
			if r := Run(m, invariant.Safety(), once); r.Stopped != StopMaxDepth || r.Err != nil || r.Checkpoints != 1 {
				t.Fatalf("one-shot run: stopped=%q err=%v checkpoints=%d", r.Stopped, r.Err, r.Checkpoints)
			}

			data, err := os.ReadFile(logged.Checkpoint.Path)
			if err != nil {
				t.Fatal(err)
			}
			if res.CheckpointBytes != int64(len(data)) {
				t.Errorf("CheckpointBytes = %d, the log holds %d", res.CheckpointBytes, len(data))
			}
			want, err := os.ReadFile(once.Checkpoint.Path)
			if err != nil {
				t.Fatal(err)
			}
			snap, err := checkpoint.Load(logged.Checkpoint.Path)
			if err != nil {
				t.Fatal(err)
			}
			at := segmentBounds(t, data)
			if segs := len(at) - 1; segs < 10 || segs != res.Checkpoints || snap.Dropped != 0 {
				t.Fatalf("log of %d checkpoints has %d segments, %d dropped on load", res.Checkpoints, segs, snap.Dropped)
			}
			if snap.Depth != depth {
				t.Fatalf("last cut at depth %d, want %d", snap.Depth, depth)
			}
			// The one field two runs writing different numbers of
			// checkpoints must differ in is that number.
			snap.Checkpoints = 1
			if got := snap.Marshal(); !bytes.Equal(got, want) {
				t.Fatalf("the log's union (%d bytes) differs from the one-shot snapshot (%d bytes)", len(got), len(want))
			}
			t.Logf("%d segments, %d bytes; one full image %d bytes", len(at)-1, len(data), len(want))

			// The negative control: cut one middle segment out along its
			// frame boundaries.
			k := len(at) / 2
			spliced := append(append([]byte(nil), data[:at[k]]...), data[at[k+1]:]...)
			if _, err := loadBytes(t, spliced); err == nil || !strings.Contains(err.Error(), "visited records") {
				t.Fatalf("log without segment %d: err = %v, want a refusal on the union count", k, err)
			}
		})
	}
}

// TestCheckpointAppendFaults: every fault at every operation of a delta
// append, injected into a run. The run goes on; the next checkpoint
// rewrites the file whole, and the run ends with the same file a clean
// run leaves — except after a crash, which freezes the disk: the file
// then holds the faulted cut or the one before it.
func TestCheckpointAppendFaults(t *testing.T) {
	m := mustBuild(t, safeCfg())
	const target = 3 // the fourth checkpoint, the third delta
	opts := func(path string, fsys storage.FS) Options {
		return Options{
			Workers: 1, Trace: true, HashOnly: true, Shards: 8, MaxDepth: 8,
			Checkpoint: CheckpointOptions{Path: path, EveryLayers: 1},
			FS:         fsys,
		}
	}

	cleanPath := filepath.Join(t.TempDir(), "run.ckpt")
	probe := storage.NewFaultFS(nil)
	want := Run(m, invariant.Safety(), opts(cleanPath, probe))
	if want.Err != nil || want.Checkpoints != 8 {
		t.Fatalf("clean run: checkpoints=%d err=%v", want.Checkpoints, want.Err)
	}
	clean, err := os.ReadFile(cleanPath)
	if err != nil {
		t.Fatal(err)
	}
	// cuts[k] is the snapshot of the first k+1 checkpoints.
	at := segmentBounds(t, clean)
	cuts := make([][]byte, len(at)-1)
	for k := range cuts {
		snap, err := loadBytes(t, clean[:at[k+1]])
		if err != nil {
			t.Fatal(err)
		}
		cuts[k] = snap.Marshal()
	}
	// The target append's operations: the base takes create, write, sync
	// and rename; each delta a write and a sync.
	var appendOps []int
	writes := 0
	for _, op := range probe.Trace() {
		if !strings.HasSuffix(op.Path, "run.ckpt.tmp") {
			continue
		}
		if op.Name == "write" {
			writes++
		}
		if writes == target+1 && op.Name != "create" && op.Name != "rename" {
			appendOps = append(appendOps, op.Index)
		}
	}
	if len(appendOps) != 2 {
		t.Fatalf("append %d has ops %v, want a write and a sync", target, appendOps)
	}

	for _, kind := range storage.Kinds {
		for _, op := range appendOps {
			t.Run(fmt.Sprintf("%s@%d", kind, op), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "run.ckpt")
				ffs := storage.NewFaultFS(nil)
				ffs.FailAt(op, kind)
				res := Run(m, invariant.Safety(), opts(path, ffs))
				if res.Err == nil {
					t.Fatal("the faulted append was not reported")
				}
				if verdictOf(res) != verdictOf(want) {
					t.Fatalf("faulted run:\n got %+v\nwant %+v", verdictOf(res), verdictOf(want))
				}
				snap, err := checkpoint.Load(path)
				if err != nil {
					t.Fatalf("the file no longer loads: %v", err)
				}
				if kind == storage.Crash {
					if got := snap.Marshal(); !bytes.Equal(got, cuts[target]) && !bytes.Equal(got, cuts[target-1]) {
						t.Fatalf("after a crash the file loads to depth %d, neither cut %d nor %d", snap.Depth, target-1, target)
					}
					return
				}
				snap.Checkpoints++ // the failed write is not counted
				if got := snap.Marshal(); !bytes.Equal(got, cuts[len(cuts)-1]) {
					t.Fatalf("the run's final file loads to depth %d, not the clean run's last cut", snap.Depth)
				}
				// After the fault, the checkpoint path's next write is a
				// full rewrite: it creates the staging file again.
				var next string
				for _, o := range ffs.Trace()[op+1:] {
					if strings.HasSuffix(o.Path, "run.ckpt.tmp") && (o.Name == "write" || o.Name == "create") {
						next = o.Name
						break
					}
				}
				if next != "create" {
					t.Fatalf("the checkpoint after the fault began with %q, not a full rewrite", next)
				}
			})
		}
	}
}
