package explore

// The disk-spill degradation rung: when the memory watchdog reaches
// its 85% rung and Options.SpillDir is set, the explorer moves its
// bulk state to disk instead of (eventually) stopping at the 100%
// rung. Two things go to disk:
//
//   - Visited-set records go to the run's checkpoint log (package
//     checkpoint): Checkpoint.Path when the run has one, else run.ckpt
//     in the spill directory. Activation first writes a cut, so the log
//     holds every record so far, and only then releases the table's two
//     payload arrays (parent, event index); the key array stays in place
//     as the membership set (8 bytes/state instead of 20). From then on
//     the records inserted since the last cut wait in the inserters'
//     buffers, as in any logged run, and each cut — at the usual cadence,
//     never suspended — appends them as a segment. A spilled run is
//     therefore resumable from its latest cut, and its counterexample
//     trace reads the parent chain back from the log.
//   - Frontier layers: at each layer boundary, after the cut, the freshly
//     built next layer's states are encoded into frontier-NNNNNN.spill
//     with a per-entry offset table, and the decoded states are dropped
//     from memory. Workers re-read and decode their claimed chunk ranges
//     with one ReadAt per chunk, so at most one layer's decoded states
//     (the one being built) are resident instead of two. A parked layer
//     is working state, not a durable record: the cut encodes the
//     frontier before it is parked.
//
// Spilling is verdict-neutral — it changes the representation of the
// search state, never which states are visited or checked — so
// SpillDir and FS are deliberately excluded from OptionsFingerprint.
// The spill directory holds working files only: cleanup removes the
// parked frontier and a log kept there.
//
// Any spill I/O failure is loud: the run stops at the next boundary
// with Result.Stopped == StopSpill and a named error in Result.Err. That
// includes every write to the log once the spill is active: the table's
// records are gone, so a failed segment cannot be rewritten from memory.
// Completing on a disk that lies is not an option.

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"

	"repro/internal/checkpoint"
	"repro/internal/cimp"
	"repro/internal/gcmodel"
	"repro/internal/storage"
)

// SpillStats counts the disk-spill rung's work; zero unless the rung
// fired (Active). The visited records it moved are counted in
// Result.CheckpointBytes.
type SpillStats struct {
	// Active reports that the spill rung activated.
	Active bool
	// Layers is the number of frontier layers parked to disk.
	Layers int
	// Bytes is the total bytes written to parked frontier files.
	Bytes int64
}

// spillKeyBytes is the in-memory payload per visited state once its
// record has spilled: just the 8-byte membership key.
const spillKeyBytes = 8

// parkedLayer is one frontier layer parked on disk: an open section
// file plus the per-entry frame offsets. All fields are set at
// construction; workers fetch ranges concurrently through ReadAt.
type parkedLayer struct {
	f    storage.File // gcrt:guard immutable
	path string       // gcrt:guard immutable
	offs []int64      // gcrt:guard immutable
	lens []int32      // gcrt:guard immutable
}

// fetchRange reads and decodes entries [lo,hi) of the parked layer
// with a single contiguous ReadAt, verifying each frame's checksum.
func (pl *parkedLayer) fetchRange(m *gcmodel.Model, lo, hi int) ([]cimp.System[*gcmodel.Local], error) {
	start := pl.offs[lo]
	end := pl.offs[hi-1] + int64(pl.lens[hi-1])
	buf := make([]byte, end-start)
	if _, err := pl.f.ReadAt(buf, start); err != nil {
		return nil, fmt.Errorf("explore: spill read %s [%d:%d): %w", pl.path, start, end, err)
	}
	out := make([]cimp.System[*gcmodel.Local], 0, hi-lo)
	off := 0
	for i := lo; i < hi; i++ {
		name, payload, next, err := checkpoint.ReadSection(buf, off)
		if err != nil {
			return nil, fmt.Errorf("explore: spill frame %d in %s: %w", i, pl.path, err)
		}
		if name != "s" {
			return nil, fmt.Errorf("explore: spill frame %d in %s: unexpected section %q", i, pl.path, name)
		}
		st, rest, err := m.DecodeState(payload)
		if err != nil {
			return nil, fmt.Errorf("explore: spill frame %d in %s: %w", i, pl.path, err)
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("explore: spill frame %d in %s: %d trailing bytes", i, pl.path, len(rest))
		}
		out = append(out, st)
		off = next
	}
	return out, nil
}

// spillState owns the spill directory and its files. Its methods lock
// mu internally; the hot paths workers touch (parkedLayer reads) go
// through immutable fields only.
type spillState struct {
	fs  storage.FS // gcrt:guard immutable
	dir string     // gcrt:guard immutable
	// log is run.ckpt in dir when the run has no checkpoint path of its
	// own, "" otherwise.
	log string // gcrt:guard immutable

	mu     sync.Mutex   // gcrt:guard atomic
	active bool         // gcrt:guard by(mu)
	err    error        // gcrt:guard by(mu)
	parked *parkedLayer // gcrt:guard by(mu)
	seq    int          // gcrt:guard by(mu)
	layers int          // gcrt:guard by(mu)
	bytes  int64        // gcrt:guard by(mu)
}

// newSpillState wires the rung without activating it; ckpt is the run's
// checkpoint path.
func newSpillState(fsys storage.FS, dir, ckpt string) *spillState {
	sp := &spillState{fs: storage.OrOS(fsys), dir: dir}
	if ckpt == "" {
		sp.log = filepath.Join(dir, "run.ckpt")
	}
	return sp
}

func (sp *spillState) isActive() bool {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.active
}

// firstErr returns the latched spill failure, if any.
func (sp *spillState) firstErr() error {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.err
}

// fail latches the first spill failure (workers race to report).
func (sp *spillState) fail(err error) {
	sp.mu.Lock()
	if sp.err == nil {
		sp.err = err
	}
	sp.mu.Unlock()
}

func (sp *spillState) stats() SpillStats {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return SpillStats{Active: sp.active, Layers: sp.layers, Bytes: sp.bytes}
}

// takeParked returns the parked file for the layer about to be
// expanded (nil when the frontier is in memory).
func (sp *spillState) takeParked() *parkedLayer {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.parked
}

// activate opens the spill directory and marks the rung active; the
// explorer then writes the cut that lets it release the table's records
// (activateSpill). Runs only at a layer boundary.
func (sp *spillState) activate() error {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.err != nil {
		return sp.err
	}
	if err := sp.fs.MkdirAll(sp.dir); err != nil {
		sp.err = fmt.Errorf("explore: spill dir %s: %w", sp.dir, err)
		return sp.err
	}
	sp.active = true
	return nil
}

// park runs the per-layer spill work after the boundary's cut: it parks
// the freshly built next layer, latching a failure.
func (sp *spillState) park(m *gcmodel.Model, layer []qent) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.err != nil {
		return
	}
	if err := sp.parkLayerLocked(m, layer); err != nil {
		sp.err = err
		return
	}
	runtime.GC() // the layer's decoded states just became garbage
}

// parkLayerLocked writes the next layer's encoded states to a fresh
// frontier file and drops the decoded states from memory. The
// previous layer's parked file has been fully consumed and is
// removed.
func (sp *spillState) parkLayerLocked(m *gcmodel.Model, layer []qent) error {
	sp.closeParkedLocked()
	if len(layer) == 0 {
		return nil
	}
	path := filepath.Join(sp.dir, fmt.Sprintf("frontier-%06d.spill", sp.seq))
	sp.seq++
	f, err := sp.fs.Create(path)
	if err != nil {
		return fmt.Errorf("explore: spill file %s: %w", path, err)
	}
	offs := make([]int64, len(layer))
	lens := make([]int32, len(layer))
	var off int64
	var buf, scratch []byte
	for i := range layer {
		scratch = m.EncodeState(scratch[:0], layer[i].state)
		pre := len(buf)
		buf = checkpoint.AppendSection(buf, "s", scratch)
		offs[i] = off
		lens[i] = int32(len(buf) - pre)
		off += int64(len(buf) - pre)
		if len(buf) >= 1<<20 {
			if _, err := f.Write(buf); err != nil {
				f.Close()
				return fmt.Errorf("explore: spill write %s: %w", path, err)
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		if _, err := f.Write(buf); err != nil {
			f.Close()
			return fmt.Errorf("explore: spill write %s: %w", path, err)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("explore: spill sync %s: %w", path, err)
	}
	sp.parked = &parkedLayer{f: f, path: path, offs: offs, lens: lens}
	sp.layers++
	sp.bytes += off
	var zero cimp.System[*gcmodel.Local]
	for i := range layer {
		layer[i].state = zero
	}
	return nil
}

func (sp *spillState) closeParkedLocked() {
	if sp.parked == nil {
		return
	}
	sp.parked.f.Close()
	sp.fs.Remove(sp.parked.path)
	sp.parked = nil
}

// cleanup best-effort removes the spill's working files: the parked
// frontier and, when it lives in the spill directory, the checkpoint log
// (closed by then). They are a representation of a finished (or failed)
// search, not a durability artifact.
func (sp *spillState) cleanup() {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	sp.closeParkedLocked()
	if sp.active && sp.log != "" {
		sp.fs.Remove(sp.log)
	}
}
