package gcmodel

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/cimp"
)

// ablationLabels maps each command-dropping ablation, by its JSON name
// (package core's Ablations), to the labels it puts on Config.Drop. A
// label with a %d verb names one command per mutator ordinal. A
// compound command — a handshake round, a write barrier, the mutators'
// handshake alternative — is named by the label of its first command.
// Together the sets name every command a builder may drop.
var ablationLabels = map[string][]string{
	// The mutators' deletion and insertion barriers (E11).
	"no_deletion_barrier":  {"mut%d_delbar_begin"},
	"no_insertion_barrier": {"mut%d_insbar_begin"},
	// The TSO lock around every mark's CAS (Figure 5).
	"unlocked_mark": {"gc_mark_lock", "gc_mark_unlock",
		"mut%d_delbar_lock", "mut%d_delbar_unlock", "mut%d_insbar_lock", "mut%d_insbar_unlock",
		"mut%d_rootmark_lock", "mut%d_rootmark_unlock"},
	// Every handshake fence: the collector's around signalling in each
	// round (Figure 4), the mutators' around handshake work.
	"no_hs_fence": {"gc_hs_idle_mfence_init", "gc_hs_idle_mfence_done",
		"gc_hs_flip_mfence_init", "gc_hs_flip_mfence_done",
		"gc_hs_init_mfence_init", "gc_hs_init_mfence_done",
		"gc_hs_mark_mfence_init", "gc_hs_mark_mfence_done",
		"gc_hs_roots_mfence_init", "gc_hs_roots_mfence_done",
		"gc_hs_work_mfence_init", "gc_hs_work_mfence_done",
		"mut%d_hs_mfence_accept", "mut%d_hs_mfence_finish"},
	// Handshake rounds 1–4 (E12). An elided round 1 leaves the no-op
	// gc_hs_idle_elided in its place.
	"elide_hs1": {"gc_hs_idle_start"},
	"elide_hs2": {"gc_hs_flip_start"},
	"elide_hs3": {"gc_hs_init_start"},
	"elide_hs4": {"gc_hs_mark_start"},
	// Liveness ablations (package liveness), each a Choose alternative:
	// handshakes are signalled but never polled, or stores are buffered
	// but never committed.
	"mute_handshake": {"mut%d_hs_poll"},
	"no_dequeue":     {"sys-dequeue-write-buffer"},
}

// AblationDrop returns the labels the named ablation drops from a
// configuration with nMutators mutators, or nil if the name drops no
// commands.
func AblationDrop(name string, nMutators int) []string {
	var out []string
	for _, l := range ablationLabels[name] {
		if !strings.Contains(l, "%d") {
			out = append(out, l)
			continue
		}
		for m := 0; m < nMutators; m++ {
			out = append(out, fmt.Sprintf(l, m))
		}
	}
	return out
}

// dropped reports whether com is on the drop list: whether the label of
// its first command is.
func (c *Config) dropped(com cimp.Com[*Local]) bool {
	if len(c.Drop) == 0 {
		return false
	}
	for s, ok := com.(*cimp.Seq[*Local]); ok; s, ok = com.(*cimp.Seq[*Local]) {
		com = s.A
	}
	return slices.Contains(c.Drop, com.Label())
}

// keep appends com to dst unless it is dropped.
func (c *Config) keep(dst []cimp.Com[*Local], com cimp.Com[*Local]) []cimp.Com[*Local] {
	if c.dropped(com) {
		return dst
	}
	return append(dst, com)
}
