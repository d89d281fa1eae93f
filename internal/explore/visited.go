package explore

import (
	"math/bits"
	"sync"
)

// rec is the per-visited-state bookkeeping: the fingerprint hash of the
// parent state and the index of the producing event in the parent's
// (deterministic) successor enumeration. Both are meaningful only when
// Options.Trace is set; eidx is -1 for the initial state.
type rec struct {
	parent uint64
	eidx   int32
}

// recBytes is the visited-set payload per state in compact mode: the
// 8-byte map key plus the 16-byte rec value (Go map bucket overhead not
// counted).
const recBytes = 8 + 16

// shard is one lock stripe of the visited set.
type shard struct {
	mu   sync.Mutex
	recs map[uint64]rec
	// fps retains the canonical fingerprint per hash in audit mode.
	fps        map[uint64]string
	collisions int64
	bytes      int64
	// Spilled representation (see spill.go): keys is the membership-
	// only set, hot buffers the records inserted since the last flush
	// to disk (retained only when traces are needed).
	keys map[uint64]struct{}
	hot  map[uint64]rec
}

// visited is the sharded visited set, keyed by fingerprint hash; the
// shard index is the hash's top bits, so any hash prefix ordering is
// spread evenly across stripes.
type visited struct {
	shards []shard
	shift  uint
	audit  bool
	// spilled switches the shards to membership+hot representation;
	// spillTrace says the hot buffers are live (Options.Trace). Both
	// flip only at a layer boundary.
	spilled    bool
	spillTrace bool
}

func newVisited(n int, audit bool) *visited {
	if n <= 0 {
		n = 64
	}
	n = 1 << bits.Len(uint(n-1)) // round up to a power of two
	v := &visited{
		shards: make([]shard, n),
		shift:  uint(64 - bits.Len(uint(n-1))),
		audit:  audit,
	}
	for i := range v.shards {
		v.shards[i].recs = make(map[uint64]rec)
		if audit {
			v.shards[i].fps = make(map[uint64]string)
		}
	}
	return v
}

func (v *visited) shard(h uint64) *shard { return &v.shards[h>>v.shift] }

// insert records hash h with bookkeeping r and reports whether the state
// was new. In audit mode fp must be the canonical encoding; a known hash
// carried by a different encoding increments the collision counter (the
// state is still treated as visited, keeping audit-mode verdicts
// identical to compact mode).
func (v *visited) insert(h uint64, r rec, fp []byte) bool {
	s := v.shard(h)
	s.mu.Lock()
	if v.spilled {
		if _, ok := s.keys[h]; ok {
			s.mu.Unlock()
			return false
		}
		s.keys[h] = struct{}{}
		s.bytes += spillKeyBytes
		if v.spillTrace {
			s.hot[h] = r
		}
		s.mu.Unlock()
		return true
	}
	if _, ok := s.recs[h]; ok {
		if v.audit && s.fps[h] != string(fp) {
			s.collisions++
		}
		s.mu.Unlock()
		return false
	}
	s.recs[h] = r
	s.bytes += recBytes
	if v.audit {
		s.fps[h] = string(fp)
		s.bytes += int64(16 + len(fp))
	}
	s.mu.Unlock()
	return true
}

func (v *visited) lookup(h uint64) (rec, bool) {
	s := v.shard(h)
	s.mu.Lock()
	if v.spilled {
		if r, ok := s.hot[h]; ok {
			s.mu.Unlock()
			return r, true
		}
		// Membership-only: the record, if retained at all, is on disk
		// (spillState.loadRecs serves the trace path).
		_, ok := s.keys[h]
		s.mu.Unlock()
		return rec{}, ok
	}
	r, ok := s.recs[h]
	s.mu.Unlock()
	return r, ok
}

// spillConvert switches every shard to the spilled representation:
// membership keys plus (when keep) the existing records as the first
// hot buffer, to be flushed to disk at the next boundary. Runs only at
// a layer boundary (no workers), like dropAudit.
func (v *visited) spillConvert(keep bool) {
	for i := range v.shards {
		s := &v.shards[i]
		s.keys = make(map[uint64]struct{}, len(s.recs))
		for h := range s.recs {
			s.keys[h] = struct{}{}
		}
		if keep {
			s.hot = s.recs
		} else {
			s.hot = nil
		}
		s.recs = nil
		s.bytes = int64(len(s.keys)) * spillKeyBytes
	}
	v.spilled = true
	v.spillTrace = keep
}

// dropAudit releases the audit-mode fingerprint strings and switches the
// set to hash-only operation. Callers invoke it only at a layer boundary
// (no workers running), so flipping v.audit is race-free.
func (v *visited) dropAudit() {
	for i := range v.shards {
		s := &v.shards[i]
		for _, fp := range s.fps {
			s.bytes -= int64(16 + len(fp))
		}
		s.fps = nil
	}
	v.audit = false
}
