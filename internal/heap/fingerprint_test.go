package heap_test

import (
	"testing"

	"repro/internal/gcmodel"
	"repro/internal/heap"
)

// fingerprint is the canonical encoding of h as the system's heap: the heap
// has no encoding of its own, its bytes are part of the state codec's walk
// of the system's local state.
func fingerprint(h heap.Heap) string {
	l := &gcmodel.Local{Sys: &gcmodel.SysLocal{Heap: h, Lock: -1}}
	return string(l.AppendFingerprint(nil))
}

// TestFingerprintSensitivity: the encoding of a heap is a function of its
// objects, and an object's flag, a field or a free moves it.
func TestFingerprintSensitivity(t *testing.T) {
	a := heap.New(2)
	a.AllocAt(0, 1, false)
	a.AllocAt(1, 1, false)
	a.Store(0, 0, 1)
	a.Store(1, 0, heap.NilRef)
	b := a.Clone()
	if fingerprint(a) != fingerprint(b) {
		t.Fatal("identical heaps fingerprint differently")
	}
	b.SetFlag(0, true)
	if fingerprint(a) == fingerprint(b) {
		t.Fatal("flag change not visible in fingerprint")
	}
	c := a.Clone()
	c.Store(0, 0, heap.NilRef)
	if fingerprint(a) == fingerprint(c) {
		t.Fatal("field change not visible in fingerprint")
	}
	d := a.Clone()
	d.Free(1)
	if fingerprint(a) == fingerprint(d) {
		t.Fatal("free not visible in fingerprint")
	}
}
