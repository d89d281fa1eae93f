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
// callers; the checker's workers additionally hold one buffer each for
// the duration of a BFS layer.
var fpBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// FingerprintHash is the fingerprint-to-hash fast path: it encodes st
// into a pooled scratch buffer and returns the 64-bit FNV-1a hash of the
// canonical encoding, allocating nothing in steady state. Two states
// with equal fingerprints always hash equal; the converse holds up to
// 64-bit collisions (see package explore's audit mode for the soundness
// argument). Safe for concurrent use.
func (m *Model) FingerprintHash(st cimp.System[*Local]) uint64 {
	bp := fpBufPool.Get().(*[]byte)
	b := m.AppendFingerprint((*bp)[:0], st)
	h := Hash64(b)
	*bp = b
	fpBufPool.Put(bp)
	return h
}

// Hash64 is the 64-bit FNV-1a hash of b, the hash used for compact state
// fingerprints.
func Hash64(b []byte) uint64 {
	const (
		offset64 uint64 = 14695981039346656037
		prime64  uint64 = 1099511628211
	)
	h := offset64
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

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
