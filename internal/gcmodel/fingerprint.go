package gcmodel

import (
	"sync"

	"repro/internal/cimp"
)

// This file is the model checker's hot-path interface to the model: an
// allocation-free fingerprint encoder, the fingerprint-to-hash fast path
// that backs the checker's compact visited sets, and the concurrency
// contract of the transition relation.

// AppendFingerprint appends the canonical encoding of st to dst and
// returns the extended buffer. It is the allocation-free form of
// Fingerprint: callers that fingerprint many states should reuse one
// scratch buffer (dst[:0]) instead of materializing a string per state.
func (m *Model) AppendFingerprint(dst []byte, st cimp.System[*Local]) []byte {
	for _, p := range st.Procs {
		dst = m.Index.AppendConfig(dst, p)
	}
	return dst
}

// fpBufPool recycles fingerprint scratch buffers across FingerprintHash
// callers.
var fpBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// FingerprintHash is the fingerprint-to-hash fast path: it encodes st
// into a pooled scratch buffer and returns the 64-bit FNV-1a hash of the
// canonical encoding, allocating nothing in steady state. Two states
// with equal fingerprints always hash equal; the converse holds up to
// 64-bit collisions. Package explore's auditor counts those, and checks
// every hash the search computes (BorrowedHash) against this encoding's;
// see DESIGN.md "Hashed fingerprints". Safe for concurrent use.
func (m *Model) FingerprintHash(st cimp.System[*Local]) uint64 {
	bp := fpBufPool.Get().(*[]byte)
	b := m.AppendFingerprint((*bp)[:0], st)
	h := Hash64(b)
	*bp = b
	fpBufPool.Put(bp)
	return h
}

// BorrowedHash is FingerprintHash of the successor st that sc currently
// lends (inside a SuccessorsBorrowed yield), without the bytes: FNV-1a is
// byte-sequential, so each process's cached segment is folded into the
// running hash where it lies, and only a configuration the table does not
// hold is encoded first, into buf (returned for reuse).
func (m *Model) BorrowedHash(sc *Scratch, st cimp.System[*Local], buf []byte) (uint64, []byte) {
	h := fnvOffset
	for p, cfg := range st.Procs {
		if seg, ok := sc.Segment(p); ok {
			for i := 0; i < len(seg); i++ {
				h = (h ^ uint64(seg[i])) * fnvPrime
			}
			continue
		}
		buf = m.Index.AppendConfig(buf[:0], cfg)
		h = fnv(h, buf)
	}
	return h, buf
}

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnv(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime
	}
	return h
}

// Hash64 is the 64-bit FNV-1a hash of b, the hash used for compact state
// fingerprints.
func Hash64(b []byte) uint64 { return fnv(fnvOffset, b) }

// SuccessorsConcurrent is Successors for concurrent callers. The
// transition relation is persistent: every LocalOp/Request/Response
// handler clones the process-local state before mutating it (see
// program.go and Local.Clone), and System.Successors copies the process
// table, so enumeration only reads st and the states it shares structure
// with. Distinct goroutines may therefore enumerate successors of
// distinct — even structurally shared — states simultaneously. This
// entry point exists to make that contract explicit and race-tested; it
// must not acquire locks or touch model-level scratch state.
func (m *Model) SuccessorsConcurrent(st cimp.System[*Local], yield func(cimp.System[*Local], cimp.Event)) {
	st.Successors(yield)
}

// Scratch is one goroutine's reusable successor-enumeration state; see
// cimp.Scratch.
type Scratch = cimp.Scratch[*Local]

// SuccessorsBorrowed is SuccessorsConcurrent for a search: every successor
// is handed to yield in sc's one process table and is valid only during the
// call (a caller that keeps one takes its CloneShallow), enumeration stops
// when yield returns false, and the configuration-table lookups are counted
// in sc until the caller's sc.Flush. Same transitions, same order. Each
// goroutine brings its own sc; nothing else is shared that
// SuccessorsConcurrent does not share.
func (m *Model) SuccessorsBorrowed(sc *Scratch, st cimp.System[*Local], yield func(cimp.System[*Local], cimp.Event) bool) {
	st.Borrowed(sc, yield)
}
