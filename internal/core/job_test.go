package core

import (
	"encoding/json"
	"reflect"
	"sort"
	"testing"
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
	if !cfg.NoDeletionBarrier || !cfg.InsertionBarrierOnlyBeforeRootsDone || !cfg.SCMemory {
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

	same("workers", JobSpec{Preset: "tiny", Options: JobOptions{MaxDepth: 20, Workers: 4}})
	same("checkpoint-every", JobSpec{Preset: "tiny", Options: JobOptions{MaxDepth: 20, CheckpointEvery: 2}})
	same("mem-budget", JobSpec{Preset: "tiny", Options: JobOptions{MaxDepth: 20, MemBudgetMiB: 256}})
}

// TestJobSpecFingerprintPinned pins fingerprints computed at the commit
// before the checker's hooks became explore.Visitor: a checkpoint or a
// cached verdict written by an older build must still be accepted.
func TestJobSpecFingerprintPinned(t *testing.T) {
	for _, tc := range []struct {
		spec JobSpec
		want uint64
	}{
		{JobSpec{Preset: "tiny"}, 0xe6227d29c2678787},
		{JobSpec{Preset: "tiny", Options: JobOptions{Liveness: true}}, 0x5a9e0f833c7ecde4},
		{JobSpec{Preset: "tiny", Options: JobOptions{LivenessProps: []string{"gc-sweep"}, MaxDepth: 20}}, 0x95b4631a2885e0b9},
		{JobSpec{Preset: "tiny", Options: JobOptions{ValidateEffects: true, Liveness: true}}, 0x87b0727c1f9e0c6e},
		{JobSpec{Preset: "two-mutator", Options: JobOptions{Reduce: true}}, 0x680b09ab58ea049f},
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
