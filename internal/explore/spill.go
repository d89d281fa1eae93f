package explore

// The disk-spill degradation rung: when the memory watchdog reaches its
// 85% rung and Options.Spill is set on a run with a checkpoint path, the
// explorer sheds its bulk state instead of (eventually) stopping at the
// 100% rung. The only file it writes is the run's checkpoint log:
//
//   - Visited-set records go to the log (package checkpoint). The first
//     spilled boundary writes a cut, so the log holds every record so
//     far, and only then releases the table's two payload arrays (parent,
//     event index); the key array stays in place as the membership set (8
//     bytes/state instead of 20). From then on the records inserted since
//     the last cut wait in the inserters' buffers, as in any logged run,
//     and each cut — at the usual cadence, never suspended — appends them
//     as a segment. A spilled run is therefore resumable from its latest
//     cut, and its counterexample trace reads the parent chain back from
//     the log.
//   - Frontier layers stay in memory, encoded: at each boundary the freshly
//     built next layer is sorted by hash and encoded once (encodeFrontier),
//     and its decoded states are dropped. That one encoding is the cut's
//     frontier section when a cut falls on the boundary, and it is the
//     layer the workers expand: each decodes its claimed chunk from it. So
//     at most one layer's decoded states (the one being built) are
//     resident instead of two, and a spilled layer expands in hash order,
//     as a resumed run's first layer does.
//
// Spilling is verdict-neutral — it changes the representation of the
// search state, never which states are visited or checked — so Spill
// and FS are deliberately excluded from OptionsFingerprint.
//
// Once the spill is active a failed write to the log is loud: the table's
// records are gone, so a failed segment cannot be rewritten from memory.
// The run stops at the boundary with Result.Stopped == StopSpill and a
// named error in Result.Err. Completing on a disk that lies is not an
// option.

import (
	"cmp"
	"runtime"
	"slices"

	"repro/internal/cimp"
	"repro/internal/gcmodel"
)

// SpillStats counts the disk-spill rung's work; zero unless the rung
// fired (Active). The visited records it moved are counted in
// Result.CheckpointBytes.
type SpillStats struct {
	// Active reports that the spill rung activated.
	Active bool
	// Layers is the number of layers expanded from the compact frontier.
	Layers int
}

// spillKeyBytes is the in-memory payload per visited state once its
// record has spilled: just the 8-byte membership key.
const spillKeyBytes = 8

// spill is the rung's work at a boundary once it fired: the next layer
// is compacted, and until the table has released its records the cut
// that lets it is written. A failed write is latched in spillErr.
func (e *explorer) spill(depth int, layer []qent) {
	e.compact(layer)
	if e.seen.spilled {
		return
	}
	e.writeCheckpoint(depth, layer)
	if e.spillErr == nil && e.log != nil && e.logDepth == depth {
		// A poisoned run wrote nothing: its records stay.
		e.seen.spill()
	}
}

// compact encodes the next layer once, in hash order, as the frontier the
// workers expand: the layer is sorted by hash so that its i-th entry is
// the i-th state encoded, and the decoded states are dropped. A cut at
// this boundary writes the same encoding (frontier); a layer compacted
// already is left as it is.
func (e *explorer) compact(layer []qent) {
	if e.ends != nil {
		return
	}
	slices.SortFunc(layer, func(a, b qent) int { return cmp.Compare(a.hash, b.hash) })
	e.ends = e.encodeFrontier(layer)
	var zero cimp.System[*gcmodel.Local]
	for i := range layer {
		layer[i].state = zero
	}
	runtime.GC() // the layer's decoded states just became garbage
}

// chunkStarts returns where each chunk of a compacted layer's encoding
// starts in frontierBuf, for the workers to decode a chunk state by state
// from its start. It releases the per-state ends and counts the layer as
// expanded from the compact frontier.
func (e *explorer) chunkStarts(n, chunk int) []int {
	at := make([]int, 0, n/chunk+1)
	for lo := 0; lo < n; lo += chunk {
		if lo == 0 {
			at = append(at, 0)
		} else {
			at = append(at, e.ends[lo-1])
		}
	}
	e.ends = nil
	e.spilled.Layers++
	return at
}
