package explore

import (
	"bytes"
	"cmp"
	"fmt"
	"runtime"
	"slices"

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
func (e *explorer) watchdog(depth int, layer []qent) bool {
	if e.opt.MemBudget <= 0 {
		return false
	}
	used := int64(e.memSample())
	switch {
	case used >= e.opt.MemBudget && e.spill == nil:
		e.writeCheckpoint(depth, layer)
		return true
	case used >= e.opt.MemBudget*85/100:
		if e.audit != nil && !e.audit.dropped {
			// The auditor rides last on the run's copy of the visitors.
			e.opt.Visitors = e.opt.Visitors[:len(e.opt.Visitors)-1]
			e.audit.drop()
			runtime.GC()
		}
		if e.spill != nil {
			// Past the budget too, the spill replaces the stop: activate
			// (idempotent) and keep exploring from disk. If the spill is
			// broken the run stops anyway — run() turns the latched error
			// into StopSpill rather than StopMemBudget.
			return e.activateSpill(depth, layer) != nil
		}
	case used >= e.opt.MemBudget*70/100:
		if !e.emergency {
			e.emergency = true
			e.writeCheckpoint(depth, layer)
		}
	}
	return false
}

// activateSpill moves the visited records to the checkpoint log: it
// writes the cut at depth, and only once the log holds every record
// releases the table's payload arrays. Idempotent; boundary-only.
func (e *explorer) activateSpill(depth int, layer []qent) error {
	if e.spill.isActive() {
		return e.spill.firstErr()
	}
	if err := e.spill.activate(); err != nil {
		return err
	}
	e.writeCheckpoint(depth, layer)
	if err := e.spill.firstErr(); err != nil || e.log == nil || e.logDepth != depth {
		// Failed, or a poisoned run wrote nothing: the records stay.
		return err
	}
	e.seen.spill()
	return nil
}

// logPath is where the run's checkpoint log is: Checkpoint.Path, or once
// the spill is active in a run without one, run.ckpt in the spill
// directory. Empty means the run writes no checkpoints.
func (e *explorer) logPath() string {
	if e.opt.Checkpoint.Path == "" && e.spill != nil && e.spill.isActive() {
		return e.spill.log
	}
	return e.opt.Checkpoint.Path
}

// snapshot captures the search at a layer boundary: the frontier at
// depth and the settled counters, with the whole visited set — or, while
// a checkpoint log is open, only the records it does not hold yet.
// Frontier states and shard entries are sorted by fingerprint hash so
// the snapshot bytes are canonical for the cut.
func (e *explorer) snapshot(depth int, layer []qent) *checkpoint.Snapshot {
	s := &checkpoint.Snapshot{
		OptionsFP:   e.optFP,
		Options:     e.optSummary,
		Depth:       depth,
		States:      e.states.Load(),
		Transitions: e.transitions.Load(),
		Ample:       e.ample.Load(),
		Deadlocks:   e.deadlocks.Load(),
		Frontier:    e.encodeFrontier(layer),
		Shards:      make([]checkpoint.Shard, len(e.seen.stripes)),
	}
	e.share(len(s.Shards), depth, func(i int) {
		var n int
		var each func(yield func(j int, en entry))
		if e.log != nil {
			n, each = sinceCut(e.ins, i)
		} else {
			all := e.seen.entries(i)
			n, each = len(all), func(yield func(int, entry)) {
				for j, en := range all {
					yield(j, en)
				}
			}
		}
		out := checkpoint.Shard{
			Hashes:  make([]uint64, n),
			Parents: make([]uint64, n),
			EIdxs:   make([]int32, n),
		}
		each(func(j int, en entry) {
			out.Hashes[j], out.Parents[j], out.EIdxs[j] = en.hash, en.parent, en.eidx
		})
		s.Shards[i] = out
	})
	return s
}

// encodeFrontier serializes the layer in hash order into one buffer,
// reused from checkpoint to checkpoint; the returned slices share it.
func (e *explorer) encodeFrontier(layer []qent) [][]byte {
	type ref struct {
		hash uint64
		i    int
	}
	ord := make([]ref, len(layer))
	for i, q := range layer {
		ord[i] = ref{q.hash, i}
	}
	slices.SortFunc(ord, func(a, b ref) int { return cmp.Compare(a.hash, b.hash) })
	ends := make([]int, len(ord))
	buf := e.frontierBuf[:0]
	for k, r := range ord {
		buf = e.m.EncodeState(buf, layer[r.i].state)
		ends[k] = len(buf)
	}
	e.frontierBuf = buf
	out := make([][]byte, len(ends))
	start := 0
	for k, end := range ends {
		out[k] = buf[start:end:end]
		start = end
	}
	return out
}

// writeCheckpoint writes the cut at depth to the log: the base of a new
// log when none is open — after start, resume or a failed write — and a
// delta segment of the records inserted since the last cut otherwise. A
// cut the open log already ends with is not written again. Before the spill a write failure does not stop the search: the
// first is surfaced in Result.Err, and the next cut rewrites the file
// whole. Once the spill is active the log is the only copy of the
// records, so a failure is latched as the spill's and stops the run.
func (e *explorer) writeCheckpoint(depth int, layer []qent) {
	path := e.logPath()
	if path == "" || (e.log != nil && depth == e.logDepth) {
		return
	}
	snap := e.snapshot(depth, layer)
	if e.poisoned.Load() {
		// A shard was left unbuilt: the run stops with StopPanic at the
		// next layer, and nothing of this cut is written.
		return
	}
	e.checkpoints++
	snap.Checkpoints = e.checkpoints
	each := func(n int, f func(i int)) { e.share(n, depth, f) }
	op := "append"
	var n int64
	var err error
	if e.log != nil {
		n, err = e.log.Append(snap, each)
	} else {
		op = "base"
		e.log, n, err = checkpoint.Create(storage.OrOS(e.opt.FS), path, snap, each)
	}
	if err != nil {
		e.checkpoints--
		e.closeLog()
		switch {
		case e.spill != nil && e.spill.isActive():
			e.spill.fail(fmt.Errorf("explore: spill log %s %s: %w", op, path, err))
		case e.ckptErr == nil:
			e.ckptErr = err
		}
		return
	}
	e.ckptBytes += n
	e.logDepth = depth
	e.seen.logged = true
	for _, in := range e.ins {
		in.cut()
	}
}

// closeLog closes the checkpoint log, if one is open: the next
// checkpoint rewrites the file whole, so the records since the last cut
// are no longer kept.
func (e *explorer) closeLog() {
	if e.log == nil {
		return
	}
	// Every segment was fsynced as it was written; a failed close loses
	// nothing the file does not already hold.
	_ = e.log.Close()
	e.log = nil
	e.seen.logged = false
	for _, in := range e.ins {
		in.cut()
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
	in := e.ins[0]
	for i := range snap.Shards {
		sh := &snap.Shards[i]
		e.seen.reserve(i, len(sh.Hashes))
		for j, h := range sh.Hashes {
			if int(h>>e.seen.shift) != i {
				return nil, 0, fmt.Errorf("explore: checkpoint shard %d holds hash %016x belonging to shard %d", i, h, h>>e.seen.shift)
			}
			if !e.seen.insert(in, h, rec{parent: sh.Parents[j], eidx: sh.EIdxs[j]}) {
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
