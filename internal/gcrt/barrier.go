package gcrt

// This file implements batched write-barrier buffers. The paper models
// mutators over x86-TSO: a mutator's stores sit in a private store
// buffer until a fence drains them, and the proof's per-mutator ghost
// state (ghost_honorary_grey, the marked_insertions / marked_deletions
// obligations of §3.2) exists precisely to account for barrier targets
// that are known to the mutator but not yet visible to the collector.
//
// The runtime mirrors that structure: instead of marking a barrier
// target immediately (a CAS-prone shared-memory operation on the Store
// hot path), the mutator appends it to a private buffer. The buffer
// drains — every target is put through the verified Figure 5 mark —
// at each handshake, exactly where the paper's mutators execute their
// MFENCE, making the handshake the real synchronization point it is in
// the model. A full buffer drains early into the mutator's private
// work-list, which is itself only published at handshakes.
//
// Soundness is the model's own argument: a buffered target is the
// runtime image of ghost_honorary_grey, and the mark-loop termination
// handshake (HSGetWork) cannot complete for a mutator without draining
// its buffer, so the collector can never observe "no grey anywhere"
// while a white reference hides in a buffer (gc_W_empty_mut_inv).
// Buffers never cross a cycle boundary with live content: every phase
// transition is a handshake, and entries drained while the collector is
// idle are discarded by mark()'s phase check, exactly as the model's
// barrier marks are no-ops outside a cycle.

// defaultBarrierBuffer is the buffer capacity when Options.BarrierBuffer
// is zero. Negative values disable buffering: barrier targets are
// marked immediately, the seed's (and the paper figures') literal
// instruction order.
const defaultBarrierBuffer = 64

// barrierCap resolves the configured buffer capacity; 0 when buffering
// is disabled.
func (rt *Runtime) barrierCap() int {
	switch {
	case rt.opt.BarrierBuffer < 0:
		return 0
	case rt.opt.BarrierBuffer == 0:
		return defaultBarrierBuffer
	default:
		return rt.opt.BarrierBuffer
	}
}

// barrierHit runs one write barrier on ref: either an immediate Figure 5
// mark (unbuffered mode) or an append to the mutator's barrier buffer.
// The already-marked fast path is taken inline in both modes, so the
// buffer only ever holds plausible CAS candidates.
func (m *Mutator) barrierHit(ref Obj) {
	if ref == NilObj {
		return
	}
	rt := m.rt
	if Phase(rt.phase.Load()) == PhIdle {
		// No cycle in flight: the barrier is a no-op (Figure 5 line 4).
		m.stats.markFast.Add(1)
		return
	}
	if m.bcap == 0 {
		var c counts
		rt.mark(ref, &m.wl, &c)
		m.stats.publish(&c)
		return
	}
	// Inline fast path: skip targets that are already at the mark sense.
	// Racy like mark()'s own test; the flush re-checks under the CAS.
	if alloc, flag := rt.arena.header(ref); !alloc || flag == rt.fM.Load() {
		m.stats.markFast.Add(1)
		return
	}
	m.bbuf = append(m.bbuf, ref)
	m.stats.barrierBuffered.Add(1)
	if len(m.bbuf) >= m.bcap {
		m.flushBarriers()
	}
}

// flushBarriers drains the barrier buffer through the verified mark into
// the mutator's private work-list. Called at every handshake (the
// model's MFENCE point) and on buffer overflow. The caller must be the
// mutator's goroutine, or the collector while the mutator is parked.
func (m *Mutator) flushBarriers() {
	if len(m.bbuf) == 0 {
		return
	}
	var c counts
	for _, ref := range m.bbuf {
		m.rt.mark(ref, &m.wl, &c)
	}
	m.bbuf = m.bbuf[:0]
	m.stats.publish(&c)
	m.stats.barrierFlushes.Add(1)
}

// inBarrierBuf reports whether ref is pending in the barrier buffer.
// Oracle use only (O(len) scan).
func (m *Mutator) inBarrierBuf(ref Obj) bool {
	for _, b := range m.bbuf {
		if b == ref {
			return true
		}
	}
	return false
}

// BarrierBuffered reports the number of barrier targets currently
// pending in the mutator's buffer (diagnostics and tests).
func (m *Mutator) BarrierBuffered() int { return len(m.bbuf) }
