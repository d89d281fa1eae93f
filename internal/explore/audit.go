package explore

import (
	"fmt"
	"sync"

	"repro/internal/cimp"
	"repro/internal/gcmodel"
)

// auditor is the collision audit (Options.HashOnly off), a Visitor beside
// the search. The visited table keys a state by its 64-bit hash alone; the
// auditor keeps each hash's canonical fingerprint and counts a known hash
// arriving with another fingerprint as a collision. It also requires every
// hash to be Hash64 of the fingerprint, so it checks the engine's one
// hashing path (BorrowedHash): a disagreement is an engine fault, and its
// panic stops the run with StopPanic. It never fails a run otherwise, so
// it stays out of OptionsFingerprint (HashOnly is in it).
type auditor struct {
	m       *gcmodel.Model
	stripes [64]auditStripe // by the hash's top six bits
	dropped bool            // by the memory watchdog, at a boundary
}

type auditStripe struct {
	mu  sync.Mutex
	fps map[uint64]string
	// bytes is what fps retains: per entry the key, the string header and
	// the fingerprint.
	bytes, collisions int64
}

// auditBufs recycles the fingerprint buffers of see.
var auditBufs = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

func newAuditor(m *gcmodel.Model) *auditor {
	a := &auditor{m: m}
	for i := range a.stripes {
		a.stripes[i].fps = make(map[uint64]string)
	}
	return a
}

// Edge audits the successor; State audits a new state, which is how the
// initial state is seen.
func (a *auditor) Edge(e Edge) error  { return a.see(e.To, e.ToHash) }
func (a *auditor) State(n Node) error { return a.see(n.State, n.Hash) }
func (*auditor) Checks() bool         { return false }

// see audits st, which the engine hashed to h.
func (a *auditor) see(st cimp.System[*gcmodel.Local], h uint64) error {
	bp := auditBufs.Get().(*[]byte)
	fp := a.m.AppendFingerprint((*bp)[:0], st)
	if got := gcmodel.Hash64(fp); got != h {
		panic(fmt.Sprintf("explore: audit: the engine hashed a state to %016x, its fingerprint hashes to %016x", h, got))
	}
	a.record(h, fp)
	*bp = fp
	auditBufs.Put(bp)
	return nil
}

// record keeps fp as h's fingerprint, or counts a collision if h has
// another.
func (a *auditor) record(h uint64, fp []byte) {
	s := &a.stripes[h>>58]
	s.mu.Lock()
	if old, ok := s.fps[h]; !ok {
		s.fps[h] = string(fp)
		s.bytes += int64(16 + len(fp))
	} else if old != string(fp) {
		s.collisions++
	}
	s.mu.Unlock()
}

// drop releases the fingerprints; the collisions counted so far stand.
func (a *auditor) drop() {
	for i := range a.stripes {
		a.stripes[i].fps, a.stripes[i].bytes = nil, 0
	}
	a.dropped = true
}
