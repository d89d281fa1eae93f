package gcrt

import (
	"runtime"
	"time"
)

// This file implements the stop-the-world baseline the paper's design
// argues against (§2, "On-the-Fly"): "The most straightforward way to
// achieve this is to stop all mutator threads before sampling their
// roots, and afterwards restarting the mutators ... But this imposes
// relatively long and unpredictable pauses on mutators."
//
// CollectSTW stops every mutator at a safe point (or treats parked
// mutators as stopped), then marks and sweeps with exclusive access — no
// write barriers, no handshake raggedness, no floating garbage — and
// finally releases the world. The mutator-observed pause is the whole
// collection, Θ(live heap), where the on-the-fly collector's pauses are
// the handshake services, Θ(roots) at worst.
//
// The baseline shares the arena, the mutator API and the statistics
// machinery, so the two designs are directly comparable (experiment E2b).

// stwState is the world-stop protocol state.
const (
	stwIdle int32 = iota
	stwRequested
	stwActive
)

// CollectSTW runs one stop-the-world mark-sweep cycle and returns the
// number of objects freed.
func (rt *Runtime) CollectSTW() int {
	cycleStart := time.Now()

	// Stop the world: every mutator must acknowledge at a safe point and
	// then block until released. The acknowledgements are cleared before
	// the request is published: a mutator acknowledges only after it has
	// seen the request, so no acknowledgement of this cycle can be erased.
	for _, m := range rt.muts {
		m.stwAcked.Store(false)
	}
	rt.stw.Store(stwRequested)
	for _, m := range rt.muts {
		for !m.stwAcked.Load() {
			m.parkMu.Lock()
			if m.parked.Load() {
				m.stwAcked.Store(true) // parked: permanently at a safe point
			}
			m.parkMu.Unlock()
			runtime.Gosched()
		}
	}
	rt.stw.Store(stwActive)

	// Exclusive marking: flip the sense, mark all roots, trace. No
	// barriers are needed; the mutators cannot move.
	rt.fM.Store(!rt.fM.Load())
	fM := rt.fM.Load()
	rt.fA.Store(fM)
	var work []Obj
	for _, m := range rt.muts {
		for _, r := range m.roots {
			if r != NilObj && rt.arena.Allocated(r) && rt.arena.flag(r) != fM {
				if rt.arena.casFlag(r, !fM, fM) {
					work = append(work, r)
					rt.stats.marked.Add(1)
				}
			}
		}
	}
	for len(work) > 0 {
		src := work[len(work)-1]
		work = work[:len(work)-1]
		for f := 0; f < rt.arena.NumFields(); f++ {
			c := rt.arena.LoadField(src, f)
			if c != NilObj && rt.arena.Allocated(c) && rt.arena.flag(c) != fM {
				if rt.arena.casFlag(c, !fM, fM) {
					work = append(work, c)
					rt.stats.marked.Add(1)
				}
			}
		}
		rt.stats.scanned.Add(1)
	}

	// Sweep (batched free-list release, one lock per shard).
	freed := rt.sweep()

	// Restart the world.
	rt.stw.Store(stwIdle)

	rt.stats.cycles.Add(1)
	rt.stats.freed.Add(int64(freed))
	rt.stats.cycleNanos.Add(time.Since(cycleStart).Nanoseconds())
	return freed
}

// stwCheck is called from SafePoint: acknowledge a pending world-stop and
// block until the collector releases the world, recording the observed
// pause.
func (m *Mutator) stwCheck() {
	rt := m.rt
	if rt.stw.Load() == stwIdle {
		return
	}
	start := time.Now()
	m.stwAcked.Store(true)
	for s := rt.stw.Load(); s != stwIdle; s = rt.stw.Load() {
		// Back-to-back cycles: the next stop can be requested before this
		// mutator was scheduled to see the previous one end. Its
		// acknowledgement has then been cleared (before the request, see
		// CollectSTW), and it is still at this safe point — acknowledge
		// again rather than wait for a release that waits for us.
		if s == stwRequested && !m.stwAcked.Load() {
			m.stwAcked.Store(true)
		}
		runtime.Gosched()
	}
	m.recordPause(time.Since(start))
}

// recordPause tracks the maximum and total pause this mutator observed.
func (m *Mutator) recordPause(d time.Duration) {
	n := d.Nanoseconds()
	m.pauseTotal.Add(n)
	m.pauseCount.Add(1)
	for {
		cur := m.pauseMax.Load()
		if n <= cur || m.pauseMax.CompareAndSwap(cur, n) {
			break
		}
	}
}

// MaxPause reports the largest single pause this mutator has observed at
// a safe point (handshake service or world stop).
func (m *Mutator) MaxPause() time.Duration { return time.Duration(m.pauseMax.Load()) }

// TotalPause reports the cumulative pause time and the number of pauses.
func (m *Mutator) TotalPause() (time.Duration, int64) {
	return time.Duration(m.pauseTotal.Load()), m.pauseCount.Load()
}
