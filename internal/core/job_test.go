package core

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/gcmodel"
)

// TestPresetRegistry checks the shared preset registry the CLIs and
// the service both resolve names through.
func TestPresetRegistry(t *testing.T) {
	names := PresetNames()
	if !sort.StringsAreSorted(names) {
		t.Errorf("PresetNames not sorted: %v", names)
	}
	if len(names) == 0 {
		t.Fatal("no presets registered")
	}
	for _, n := range names {
		if _, err := PresetConfig(n); err != nil {
			t.Errorf("PresetConfig(%q): %v", n, err)
		}
	}
	if _, err := PresetConfig("no-such-preset"); err == nil {
		t.Error("PresetConfig accepted an unknown name")
	}
}

// TestAblationsApply checks the overlay maps onto the model config and
// that the label round-trips through JSON.
func TestAblationsApply(t *testing.T) {
	abl := Ablations{NoDeletionBarrier: true, InsertionBarrierGated: true, SCMemory: true}
	cfg, err := PresetConfig("tiny")
	if err != nil {
		t.Fatal(err)
	}
	abl.Apply(&cfg)
	if !slices.Equal(cfg.Drop, gcmodel.AblationDrop("no_deletion_barrier", cfg.NMutators)) || !cfg.InsertionBarrierOnlyBeforeRootsDone || !cfg.SCMemory {
		t.Errorf("Apply did not set the config switches: %+v", cfg)
	}
	if got := abl.String(); got != "no-deletion-barrier,insertion-barrier-gated,sc" {
		t.Errorf("String() = %q", got)
	}
	if got := (Ablations{}).String(); got != "" {
		t.Errorf("clean String() = %q, want empty", got)
	}

	b, err := json.Marshal(abl)
	if err != nil {
		t.Fatal(err)
	}
	var back Ablations
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != abl {
		t.Errorf("JSON round-trip changed ablations: %+v != %+v", back, abl)
	}
}

// TestJobSpecFingerprint checks the cache-key properties the service
// depends on: stability, sensitivity to everything verdict-relevant,
// and insensitivity to scheduling knobs.
func TestJobSpecFingerprint(t *testing.T) {
	base := JobSpec{Preset: "tiny", Options: JobOptions{MaxDepth: 20}}
	fp1, sum1, err := base.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fp2, sum2, err := base.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 || sum1 != sum2 {
		t.Errorf("fingerprint not stable: %x/%x", fp1, fp2)
	}

	differ := func(name string, spec JobSpec) {
		fp, _, err := spec.Fingerprint()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if fp == fp1 {
			t.Errorf("%s: fingerprint did not change", name)
		}
	}
	same := func(name string, spec JobSpec) {
		fp, _, err := spec.Fingerprint()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if fp != fp1 {
			t.Errorf("%s: fingerprint changed (%x != %x) — must be verdict-neutral", name, fp, fp1)
		}
	}

	differ("preset", JobSpec{Preset: "alloc", Options: base.Options})
	differ("ablation", JobSpec{Preset: "tiny", Ablations: Ablations{NoDeletionBarrier: true}, Options: base.Options})
	differ("max-depth", JobSpec{Preset: "tiny", Options: JobOptions{MaxDepth: 21}})
	differ("headline", JobSpec{Preset: "tiny", Options: JobOptions{MaxDepth: 20, HeadlineOnly: true}})
	differ("liveness", JobSpec{Preset: "tiny", Options: JobOptions{MaxDepth: 20, Liveness: true}})
	differ("liveness-props", JobSpec{Preset: "tiny", Options: JobOptions{MaxDepth: 20, LivenessProps: []string{"gc-sweep"}}})
	one := 1
	differ("bounds", JobSpec{Preset: "tiny", Bounds: Bounds{MaxBuf: &one}, Options: base.Options})

	same("workers", JobSpec{Preset: "tiny", Options: JobOptions{MaxDepth: 20, Workers: 4}})
	same("checkpoint-every", JobSpec{Preset: "tiny", Options: JobOptions{MaxDepth: 20, CheckpointEvery: 2}})
	same("mem-budget", JobSpec{Preset: "tiny", Options: JobOptions{MaxDepth: 20, MemBudgetMiB: 256}})
}

// TestJobSpecFingerprintPinned pins fingerprints computed at the commit
// before the checker's hooks became explore.Visitor: a checkpoint or a
// cached verdict written by an older build must still be accepted.
func TestJobSpecFingerprintPinned(t *testing.T) {
	two := 2
	for _, tc := range []struct {
		spec JobSpec
		want uint64
	}{
		{JobSpec{Preset: "tiny"}, 0xe6227d29c2678787},
		{JobSpec{Preset: "tiny", Options: JobOptions{Liveness: true}}, 0x5a9e0f833c7ecde4},
		{JobSpec{Preset: "tiny", Options: JobOptions{LivenessProps: []string{"gc-sweep"}, MaxDepth: 20}}, 0x95b4631a2885e0b9},
		{JobSpec{Preset: "tiny", Options: JobOptions{ValidateEffects: true, Liveness: true}}, 0x87b0727c1f9e0c6e},
		{JobSpec{Preset: "two-mutator", Options: JobOptions{Reduce: true}}, 0x680b09ab58ea049f},
		{JobSpec{Preset: "tiny", Options: JobOptions{Audit: true}}, 0x3f6fd163747708b0},
		// Ablated specs: with violation.golden's no_deletion_barrier key
		// these cover every alias that drops commands.
		{JobSpec{Preset: "tiny", Ablations: Ablations{NoHSFence: true}}, 0x31aef466ea2ad036},
		{JobSpec{Preset: "tiny", Ablations: Ablations{UnlockedMark: true}, Options: JobOptions{HeadlineOnly: true}}, 0xbb0fe193d799f2a3},
		{JobSpec{Preset: "alloc", Bounds: Bounds{Refs: &two}, Ablations: Ablations{ElideHS3: true}}, 0xf22003fe602564e7},
		{JobSpec{Preset: "tiny", Ablations: Ablations{MuteHandshake: true}, Options: JobOptions{Liveness: true}}, 0xd2d5932ffe93cbf3},
		{JobSpec{Preset: "tiny", Ablations: Ablations{NoDequeue: true}, Options: JobOptions{Liveness: true}}, 0x11875d845ed95253},
		{JobSpec{Preset: "two-mutator", Ablations: Ablations{NoInsertionBarrier: true, ElideHS1: true, ElideHS2: true, ElideHS4: true}}, 0xb1d3b57dfbb87050},
	} {
		fp, sum, err := tc.spec.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if fp != tc.want {
			t.Errorf("%+v: fingerprint %016x, want %016x\n%s", tc.spec, fp, tc.want, sum)
		}
	}
}

// TestJobSpecBounds: bounds override any preset, an explicit 0 still
// overrides, and tiny with allocation as a bounds spec on alloc keeps
// the fingerprints gcmc's CLI-built tiny-with-allocation configuration
// had, so its cached verdicts and checkpoints stay valid.
func TestJobSpecBounds(t *testing.T) {
	var spec JobSpec
	if err := DecodeStrict(strings.NewReader(`{"preset":"alloc","bounds":{"refs":2},"options":{"max_depth":10}}`), &spec); err != nil {
		t.Fatal(err)
	}
	fp, sum, err := spec.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp != 0x531020067a3e77f3 {
		t.Errorf("alloc with refs 2: fingerprint %016x, want 531020067a3e77f3\n%s", fp, sum)
	}
	spec.Options = JobOptions{}
	if fp, sum, err := spec.Fingerprint(); err != nil || fp != 0xe7aaece6024d7c8c {
		t.Errorf("alloc with refs 2, default options: fingerprint %016x (%v), want e7aaece6024d7c8c\n%s", fp, err, sum)
	}

	zero, one := 0, 1
	cfg, _, err := JobSpec{Preset: "tiny", Bounds: Bounds{Budget: &zero, MaxBuf: &one}}.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := TinyConfig()
	want.OpBudget, want.MaxBuf = 0, 1
	if !reflect.DeepEqual(cfg, want) {
		t.Errorf("bounds not applied:\n got %+v\nwant %+v", cfg, want)
	}
}

// TestReadJobSpec: a spec file is read strictly, and a run is named by
// a file or a preset, never both.
func TestReadJobSpec(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	good := write("good.json", `{"preset":"alloc","bounds":{"refs":2}}`+"\n")
	spec, err := ReadJobSpec(good, "")
	if err != nil || spec.Preset != "alloc" || spec.Bounds.Refs == nil || *spec.Bounds.Refs != 2 {
		t.Errorf("ReadJobSpec(good) = %+v, %v", spec, err)
	}
	if spec, err := ReadJobSpec("", ""); err != nil || spec.Preset != "tiny" {
		t.Errorf("no file, no preset: %+v, %v; want tiny", spec, err)
	}
	for name, tc := range map[string]struct{ path, preset, want string }{
		"misspelt": {write("misspelt.json", `{"preset":"tiny","options":{"reduse":true}}`), "", `"reduse"`},
		"bounds":   {write("bounds.json", `{"preset":"tiny","bounds":{"ref":2}}`), "", `"ref"`},
		"trailing": {write("trailing.json", `{"preset":"tiny"} {"preset":"alloc"}`), "", "trailing data"},
		"garbage":  {write("garbage.json", `{"preset":"tiny"}x`), "", "trailing data"},
		"both":     {good, "tiny", "both"},
		"missing":  {filepath.Join(dir, "missing.json"), "", "no such file"},
	} {
		if _, err := ReadJobSpec(tc.path, tc.preset); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one mentioning %s", name, err, tc.want)
		}
	}
}

// TestJobOptionsWireFormat pins the option keys a job may carry: every
// field round-trips, and the two options that were deleted (symmetry,
// shards) are not on the wire, so the daemon's strict decoder names them
// instead of dropping them.
func TestJobOptionsWireFormat(t *testing.T) {
	full := JobOptions{
		MaxStates: 1, MaxDepth: 2, HeadlineOnly: true, Audit: true, Reduce: true,
		Liveness: true, LivenessProps: []string{"gc-sweep"}, ValidateEffects: true,
		Workers: 3, CheckpointEvery: 4, MemBudgetMiB: 5, Spill: true,
	}
	b, err := json.Marshal(full)
	if err != nil {
		t.Fatal(err)
	}
	var back JobOptions
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, full) {
		t.Errorf("round trip lost a field:\n got %+v\nwant %+v", back, full)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(b, &keys); err != nil {
		t.Fatal(err)
	}
	if n := reflect.TypeOf(full).NumField(); len(keys) != n {
		t.Errorf("%d keys on the wire for %d fields (a field is unset in this test): %s", len(keys), n, b)
	}
	for _, gone := range []string{"symmetry", "shards"} {
		if _, ok := keys[gone]; ok {
			t.Errorf("deleted option %q is still on the wire: %s", gone, b)
		}
	}
}

// TestJobStateTerminal pins the lifecycle partition.
func TestJobStateTerminal(t *testing.T) {
	terminal := []JobState{JobDone, JobFailed, JobCancelled}
	live := []JobState{JobQueued, JobRunning, JobInterrupted, JobResuming}
	for _, s := range terminal {
		if !s.Terminal() {
			t.Errorf("%s should be terminal", s)
		}
	}
	for _, s := range live {
		if s.Terminal() {
			t.Errorf("%s should not be terminal", s)
		}
	}
}

// TestRunJobFreshAndBounded runs a spec through RunJob without any
// checkpointing and checks the verdict plumbing.
func TestRunJobFreshAndBounded(t *testing.T) {
	res, resumed, err := RunJob(JobSpec{Preset: "tiny", Options: JobOptions{MaxDepth: 12}}, JobRun{})
	if err != nil {
		t.Fatal(err)
	}
	if resumed {
		t.Error("resumed without a checkpoint path")
	}
	if res.States == 0 || res.Depth != 12 {
		t.Errorf("unexpected result: states=%d depth=%d", res.States, res.Depth)
	}
	if res.Status() != "no-violation" {
		t.Errorf("Status() = %q", res.Status())
	}
}
