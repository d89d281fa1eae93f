package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/gcmodel"
)

// presetBuilders maps preset names to their configuration constructors.
// The registry is the single source of truth for every CLI and for the
// verification service: gcmc, gcmcd and the corpus
// enumerator all resolve presets here, so a preset added once is
// submittable, lintable and cacheable everywhere.
var presetBuilders = map[string]func() ModelConfig{
	"tiny":              TinyConfig,
	"alloc":             AllocConfig,
	"two-mutator":       TwoMutatorConfig,
	"two-mutator-loads": TwoMutatorLoadsConfig,
	"two-sym":           SymmetricConfig,
	"chain":             ChainConfig,
}

// PresetNames lists the shipped presets in a stable (sorted) order.
func PresetNames() []string {
	names := make([]string, 0, len(presetBuilders))
	for n := range presetBuilders {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// PresetConfig resolves a preset name to a fresh configuration.
func PresetConfig(name string) (ModelConfig, error) {
	b, ok := presetBuilders[name]
	if !ok {
		return ModelConfig{}, fmt.Errorf("core: unknown preset %q (have %s)", name, strings.Join(PresetNames(), ", "))
	}
	return b(), nil
}

// Ablations is the serializable set of model ablation switches a
// verification job may apply on top of a preset: the E11/E12/E19
// mechanism removals, the memory-model swap, and the liveness
// ablations. It exists so a job specification (package server, gcmc
// -spec) can name a configuration without shipping the whole
// ModelConfig, and every run applies it through JobSpec.Build.
type Ablations struct {
	NoDeletionBarrier     bool `json:"no_deletion_barrier,omitempty"`
	NoInsertionBarrier    bool `json:"no_insertion_barrier,omitempty"`
	InsertionBarrierGated bool `json:"insertion_barrier_gated,omitempty"`
	SCMemory              bool `json:"sc_memory,omitempty"`
	AllocWhite            bool `json:"alloc_white,omitempty"`
	UnlockedMark          bool `json:"unlocked_mark,omitempty"`
	NoHSFence             bool `json:"no_hs_fence,omitempty"`
	ElideHS1              bool `json:"elide_hs1,omitempty"`
	ElideHS2              bool `json:"elide_hs2,omitempty"`
	ElideHS3              bool `json:"elide_hs3,omitempty"`
	ElideHS4              bool `json:"elide_hs4,omitempty"`
	MuteHandshake         bool `json:"mute_handshake,omitempty"`
	NoDequeue             bool `json:"no_dequeue,omitempty"`
}

// Apply overlays the ablation switches onto cfg: three set fields of
// the configuration, and the rest become its drop list
// (gcmodel.AblationDrop).
func (a Ablations) Apply(cfg *ModelConfig) {
	cfg.InsertionBarrierOnlyBeforeRootsDone = a.InsertionBarrierGated
	cfg.SCMemory = a.SCMemory
	cfg.AllocWhite = a.AllocWhite
	cfg.Drop = nil
	for _, s := range a.switches() {
		if s.on {
			cfg.Drop = append(cfg.Drop, gcmodel.AblationDrop(s.alias, cfg.NMutators)...)
		}
	}
}

// String renders the active switches as a stable comma-joined label
// ("" for a clean configuration) — the corpus matrix and verdict
// records use it as the human-readable cell name.
func (a Ablations) String() string {
	var on []string
	for _, s := range a.switches() {
		if s.on {
			on = append(on, s.name)
		}
	}
	return strings.Join(on, ",")
}

// ablationSwitch is one switch of Ablations: its JSON name, the name
// String gives it, and whether it is set.
type ablationSwitch struct {
	alias, name string
	on          bool
}

// switches lists every switch in the order String names them.
func (a Ablations) switches() [13]ablationSwitch {
	return [...]ablationSwitch{
		{"no_deletion_barrier", "no-deletion-barrier", a.NoDeletionBarrier},
		{"no_insertion_barrier", "no-insertion-barrier", a.NoInsertionBarrier},
		{"insertion_barrier_gated", "insertion-barrier-gated", a.InsertionBarrierGated},
		{"sc_memory", "sc", a.SCMemory},
		{"alloc_white", "alloc-white", a.AllocWhite},
		{"unlocked_mark", "unlocked-mark", a.UnlockedMark},
		{"no_hs_fence", "no-hs-fence", a.NoHSFence},
		{"elide_hs1", "elide-hs1", a.ElideHS1},
		{"elide_hs2", "elide-hs2", a.ElideHS2},
		{"elide_hs3", "elide-hs3", a.ElideHS3},
		{"elide_hs4", "elide-hs4", a.ElideHS4},
		{"mute_handshake", "mute-handshake", a.MuteHandshake},
		{"no_dequeue", "no-dequeue", a.NoDequeue},
	}
}
