package gcrt

import "time"

// This file implements the design alternative the paper's §2
// ("Timeliness") rejects: a pure incremental-update collector that keeps
// only the insertion barrier and, instead of snapshotting, **rescans the
// mutators' roots** until a rescan discovers nothing new:
//
//	"One solution to this is for the collector to rescan the mutators'
//	roots before marking terminates. However, such references might hide
//	long chains of unmarked objects, potentially prolonging the marking
//	phase ... our collector ensures the timely completion of the
//	collection cycle by employing a snapshot (or deletion) barrier."
//
// CollectRescan is safe without the deletion barrier (the insertion
// barrier maintains the strong tricolor invariant on the heap, and roots
// are re-greyed every round), but the number of rounds is driven by the
// mutators: a mutator that keeps loading white references keeps the
// marking phase alive. The snapshot collector's round count is bounded by
// design. Experiment E2c quantifies the difference.

// CollectRescan runs one incremental-update collection cycle with root
// rescanning and returns the number of objects freed. Use it with
// Options.NoDeletionBarrier set; the deletion barrier is harmless but
// redundant here.
func (rt *Runtime) CollectRescan() int {
	cycleStart := time.Now()

	rt.handshake(HSNoop)
	rt.fM.Store(!rt.fM.Load())
	rt.handshake(HSNoop)
	rt.phase.Store(int32(PhInit))
	rt.handshake(HSNoop)
	rt.phase.Store(int32(PhMark))
	if !rt.opt.AllocWhite {
		rt.fA.Store(rt.fM.Load())
	}
	rt.handshake(HSNoop)

	// Rescan until a root-marking round yields no new grey objects and
	// the trace is complete. Unlike Collect, the roots handshake repeats.
	// The trace is the serial one whatever MarkWorkers says.
	for {
		rt.handshake(HSGetRoots)
		if rt.traceAll(1) == 0 {
			break
		}
	}

	rt.phase.Store(int32(PhSweep))
	freed := rt.sweep()
	rt.phase.Store(int32(PhIdle))

	rt.stats.cycles.Add(1)
	rt.stats.freed.Add(int64(freed))
	rt.stats.cycleNanos.Add(time.Since(cycleStart).Nanoseconds())
	return freed
}

// RescanRounds reports the cumulative number of root-marking rounds.
func (rt *Runtime) RescanRounds() int64 { return rt.stats.rootsRounds.Load() }
