package explore

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"

	"repro/internal/checkpoint"
	"repro/internal/storage"
)

// spillErr returns the latched spill failure (nil without a spill).
func (e *explorer) spillErr() error {
	if e.spill == nil {
		return nil
	}
	return e.spill.firstErr()
}

// watchdog is the layer-boundary memory ladder; see Options.MemBudget.
// It reports true when the run must stop.
func (e *explorer) watchdog(depth int, layer []qent, res *Result) bool {
	if e.opt.MemBudget <= 0 {
		return false
	}
	used := int64(e.memSample())
	switch {
	case used >= e.opt.MemBudget:
		if e.spill != nil {
			// The spill rung replaces the stop: activate (idempotent)
			// and keep exploring from disk. If the spill is broken the
			// run stops anyway — run() turns the latched error into
			// StopSpill rather than StopMemBudget.
			if err := e.activateSpill(); err == nil {
				return false
			}
			return true
		}
		e.writeCheckpoint(depth, layer)
		return true
	case used >= e.opt.MemBudget*85/100:
		if e.seen.audit {
			e.seen.dropAudit()
			e.degraded = true
			runtime.GC()
		}
		if e.spill != nil {
			if err := e.activateSpill(); err != nil {
				return true // latched; run() reports StopSpill
			}
		}
	case used >= e.opt.MemBudget*70/100:
		if !e.emergency {
			e.emergency = true
			e.writeCheckpoint(depth, layer)
		}
	}
	return false
}

// activateSpill drops audit retention (spilled shards are hash-only by
// construction) and switches the visited set to its on-disk
// representation. Idempotent; boundary-only.
func (e *explorer) activateSpill() error {
	if e.seen.audit {
		e.seen.dropAudit()
		e.degraded = true
	}
	return e.spill.activate(e.seen)
}

// snapshot captures the search at a layer boundary: the frontier at
// depth, the full visited set, and the settled counters. Frontier states
// and shard entries are sorted by fingerprint hash so the snapshot bytes
// are canonical for the cut.
func (e *explorer) snapshot(depth int, layer []qent) *checkpoint.Snapshot {
	s := &checkpoint.Snapshot{
		OptionsFP:   e.optFP,
		Options:     e.optSummary,
		Depth:       depth,
		States:      e.states.Load(),
		Transitions: e.transitions.Load(),
		Ample:       e.ample.Load(),
		Deadlocks:   e.deadlocks.Load(),
		Audit:       e.seen.audit,
		Degraded:    e.degraded,
		Checkpoints: e.checkpoints,
	}
	ord := make([]int, len(layer))
	for i := range ord {
		ord[i] = i
	}
	sort.Slice(ord, func(a, b int) bool { return layer[ord[a]].hash < layer[ord[b]].hash })
	s.Frontier = make([][]byte, len(layer))
	for i, j := range ord {
		s.Frontier[i] = e.m.EncodeState(nil, layer[j].state)
	}
	s.Shards = make([]checkpoint.Shard, len(e.seen.stripes))
	for i := range e.seen.stripes {
		ents := e.seen.entries(i)
		out := checkpoint.Shard{
			Hashes:  make([]uint64, len(ents)),
			Parents: make([]uint64, len(ents)),
			EIdxs:   make([]int32, len(ents)),
		}
		if e.seen.audit {
			out.FPs = make([][]byte, len(ents))
		}
		for j, en := range ents {
			out.Hashes[j], out.Parents[j], out.EIdxs[j] = en.hash, en.parent, en.eidx
			if e.seen.audit {
				out.FPs[j] = []byte(e.seen.stripes[i].fps[en.hash])
			}
		}
		s.Shards[i] = out
	}
	return s
}

// writeCheckpoint snapshots the cut and saves it atomically. A write
// failure does not stop the search; the first failure is surfaced in
// Result.Err.
func (e *explorer) writeCheckpoint(depth int, layer []qent) {
	if e.opt.Checkpoint.Path == "" {
		return
	}
	if e.spill != nil && e.spill.isActive() {
		// A spilled run's records and frontier live on disk already and
		// the in-memory layer holds hashes only: there is nothing a
		// snapshot could capture. Checkpointing is suspended; resuming a
		// spilled run means its last pre-spill checkpoint.
		return
	}
	e.checkpoints++
	snap := e.snapshot(depth, layer)
	if _, err := checkpoint.SaveFS(storage.OrOS(e.opt.FS), e.opt.Checkpoint.Path, snap); err != nil {
		e.checkpoints--
		if e.ckptErr == nil {
			e.ckptErr = err
		}
	}
}

// restore rebuilds the search from a snapshot: validates the options
// fingerprint, repopulates the visited shards (verifying every entry
// lands in the shard its hash selects), and decodes the frontier,
// re-encoding each state to prove the codec round-trips it and checking
// it against the visited set. It returns the frontier and its depth.
func (e *explorer) restore(snap *checkpoint.Snapshot) ([]qent, int, error) {
	if snap.OptionsFP != e.optFP {
		return nil, 0, fmt.Errorf(
			"explore: checkpoint was taken under different options\n  checkpoint: %s\n  this run:   %s",
			snap.Options, e.optSummary)
	}
	if len(snap.Shards) != len(e.seen.stripes) {
		return nil, 0, fmt.Errorf("explore: checkpoint has %d shards, this run %d", len(snap.Shards), len(e.seen.stripes))
	}
	switch {
	case snap.Audit && !e.seen.audit:
		return nil, 0, fmt.Errorf("explore: audit-mode checkpoint resumed into a hash-only run")
	case !snap.Audit && e.seen.audit:
		if !snap.Degraded {
			return nil, 0, fmt.Errorf("explore: hash-only checkpoint resumed into an audit-mode run")
		}
		// The original audit run was degraded to hash-only by the memory
		// watchdog; the resumed run continues hash-only.
		e.seen.dropAudit()
	}
	e.degraded = snap.Degraded
	in := e.ins[0]
	for i := range snap.Shards {
		sh := &snap.Shards[i]
		e.seen.reserve(i, len(sh.Hashes))
		for j, h := range sh.Hashes {
			if int(h>>e.seen.shift) != i {
				return nil, 0, fmt.Errorf("explore: checkpoint shard %d holds hash %016x belonging to shard %d", i, h, h>>e.seen.shift)
			}
			var fp []byte
			if e.seen.audit {
				fp = sh.FPs[j]
			}
			if !e.seen.insert(in, h, rec{parent: sh.Parents[j], eidx: sh.EIdxs[j]}, fp) {
				return nil, 0, fmt.Errorf("explore: checkpoint shard %d holds duplicate hash %016x", i, h)
			}
		}
	}
	e.seen.settle(e.ins[:1], len(snap.Frontier))
	if _, ok := e.seen.lookup(e.initHash); !ok {
		return nil, 0, fmt.Errorf("explore: checkpoint visited set does not contain the initial state")
	}
	layer := make([]qent, 0, len(snap.Frontier))
	var scratch []byte
	for i, enc := range snap.Frontier {
		st, rest, err := e.m.DecodeState(enc)
		if err != nil {
			return nil, 0, fmt.Errorf("explore: checkpoint frontier state %d: %w", i, err)
		}
		if len(rest) != 0 {
			return nil, 0, fmt.Errorf("explore: checkpoint frontier state %d: %d trailing bytes", i, len(rest))
		}
		scratch = e.m.EncodeState(scratch[:0], st)
		if !bytes.Equal(scratch, enc) {
			return nil, 0, fmt.Errorf("explore: checkpoint frontier state %d does not round-trip", i)
		}
		h := e.m.FingerprintHash(st)
		if _, ok := e.seen.lookup(h); !ok {
			return nil, 0, fmt.Errorf("explore: checkpoint frontier state %d (%016x) missing from visited set", i, h)
		}
		layer = append(layer, qent{state: st, hash: h})
	}
	e.states.Store(snap.States)
	e.transitions.Store(snap.Transitions)
	e.ample.Store(snap.Ample)
	e.deadlocks.Store(snap.Deadlocks)
	e.lastReport.Store(snap.States)
	e.checkpoints = snap.Checkpoints
	return layer, snap.Depth, nil
}
