// Package heap implements the abstract heap of the paper's model (§3.1):
// a fixed universe of references ℛ, a partial map from references to
// objects, and the reachability machinery underlying the tricolor
// abstraction (§2.1). An object is a garbage-collection mark flag plus a
// total map from fields to references-or-NULL; non-reference payloads are
// abstracted away, exactly as in the paper.
//
// The mark flag's interpretation is contingent on the shared sense flag
// f_M (Lamport's trick, paper §2): an object is "marked" when its flag
// equals f_M, so the collector flips f_M instead of resetting flags on
// retained objects from one cycle to the next.
package heap

import (
	"fmt"
	"strings"
)

// Ref is a heap reference: an index into the reference universe, or
// NilRef for NULL.
type Ref int

// NilRef is the NULL reference.
const NilRef Ref = -1

// Field indexes an object's reference fields.
type Field int

// Object is a heap object: a mark flag and reference fields.
type Object struct {
	// Flag is the raw mark bit; it means "marked" iff it equals the
	// current mark sense f_M.
	Flag bool
	// Fields maps each field to a Ref or NilRef.
	Fields []Ref
}

// Clone deep-copies the object.
func (o *Object) Clone() *Object {
	return &Object{Flag: o.Flag, Fields: append([]Ref(nil), o.Fields...)}
}

// Heap is a partial map from the reference universe {0..len(Objs)-1} to
// objects. A nil entry means the reference is unallocated (free); the
// domain of the heap tracks free references, as in the paper.
type Heap struct {
	Objs []*Object
}

// New creates a heap over a universe of n references, all free.
func New(n int) Heap {
	return Heap{Objs: make([]*Object, n)}
}

// Clone deep-copies the heap.
func (h Heap) Clone() Heap {
	n := Heap{Objs: make([]*Object, len(h.Objs))}
	for i, o := range h.Objs {
		if o != nil {
			n.Objs[i] = o.Clone()
		}
	}
	return n
}

// Size reports the size of the reference universe.
func (h Heap) Size() int { return len(h.Objs) }

// Valid reports whether r denotes an allocated object ("there is an
// object at r"): the valid_ref predicate of the headline theorem.
func (h Heap) Valid(r Ref) bool {
	return r >= 0 && int(r) < len(h.Objs) && h.Objs[r] != nil
}

// Obj returns the object at r, panicking if r is not Valid.
func (h Heap) Obj(r Ref) *Object {
	if !h.Valid(r) {
		panic(fmt.Sprintf("heap: no object at ref %d", r))
	}
	return h.Objs[r]
}

// FreeRefs returns the unallocated references.
func (h Heap) FreeRefs() []Ref {
	var out []Ref
	for i, o := range h.Objs {
		if o == nil {
			out = append(out, Ref(i))
		}
	}
	return out
}

// AllocAt installs a fresh object at the free reference r with nfields
// NULL fields and the given raw flag value.
func (h Heap) AllocAt(r Ref, nfields int, flag bool) {
	if h.Valid(r) {
		panic(fmt.Sprintf("heap: alloc at live ref %d", r))
	}
	fs := make([]Ref, nfields)
	for i := range fs {
		fs[i] = NilRef
	}
	h.Objs[r] = &Object{Flag: flag, Fields: fs}
}

// Free removes the object at r from the heap.
func (h Heap) Free(r Ref) {
	if !h.Valid(r) {
		panic(fmt.Sprintf("heap: free of dead ref %d", r))
	}
	h.Objs[r] = nil
}

// Load returns the reference stored in field f of the object at r.
func (h Heap) Load(r Ref, f Field) Ref { return h.Obj(r).Fields[f] }

// Store writes dst into field f of the object at r.
func (h Heap) Store(r Ref, f Field, dst Ref) { h.Obj(r).Fields[f] = dst }

// Marked reports whether the object at r is marked under mark sense fM.
func (h Heap) Marked(r Ref, fM bool) bool { return h.Obj(r).Flag == fM }

// SetFlag sets the raw flag of the object at r.
func (h Heap) SetFlag(r Ref, flag bool) { h.Obj(r).Flag = flag }

// Reachable computes the set of valid references reachable from the roots
// through heap objects. A path always goes via the heap (§3.2); pending
// TSO writes are accounted for by the caller treating buffered references
// as extra roots. Roots that are invalid (dangling) are not included.
func (h Heap) Reachable(roots RefSet) RefSet {
	var seen RefSet
	stack := make([]Ref, 0, 8)
	roots.Each(func(r Ref) {
		if h.Valid(r) && !seen.Has(r) {
			seen = seen.Add(r)
			stack = append(stack, r)
		}
	})
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range h.Objs[r].Fields {
			if c != NilRef && h.Valid(c) && !seen.Has(c) {
				seen = seen.Add(c)
				stack = append(stack, c)
			}
		}
	}
	return seen
}

// ReachableVia computes the references reachable from `from` via paths
// whose intermediate nodes all satisfy via. Traversal always continues
// out of the (valid) start references themselves; beyond them it
// continues out of a node only when via(node) holds. It implements the
// Grey →*w White chains of the weak tricolor invariant: to ask whether a
// white object w is grey-protected, call with the grey set as `from` and
// via = "is white".
func (h Heap) ReachableVia(from RefSet, via func(Ref) bool) RefSet {
	var seen RefSet
	stack := make([]Ref, 0, 8)
	from.Each(func(r Ref) {
		if h.Valid(r) && !seen.Has(r) {
			seen = seen.Add(r)
			stack = append(stack, r)
		}
	})
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !from.Has(r) && !via(r) {
			continue // do not traverse out of interior nodes that fail via
		}
		for _, c := range h.Objs[r].Fields {
			if c != NilRef && h.Valid(c) && !seen.Has(c) {
				seen = seen.Add(c)
				stack = append(stack, c)
			}
		}
	}
	return seen
}

// Refs returns the set of all valid references.
func (h Heap) Refs() RefSet {
	var s RefSet
	for i, o := range h.Objs {
		if o != nil {
			s = s.Add(Ref(i))
		}
	}
	return s
}

// PointersTo returns the set of (src, field) edges whose target is dst.
func (h Heap) PointersTo(dst Ref) []Edge {
	var out []Edge
	for i, o := range h.Objs {
		if o == nil {
			continue
		}
		for f, c := range o.Fields {
			if c == dst {
				out = append(out, Edge{Src: Ref(i), Field: Field(f)})
			}
		}
	}
	return out
}

// Edge identifies a reference field of an object.
type Edge struct {
	Src   Ref
	Field Field
}

// String renders the heap for traces, e.g. "{0*:[1 -] 1:[- -]}" where *
// marks a set flag.
func (h Heap) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for i, o := range h.Objs {
		if o == nil {
			continue
		}
		if !first {
			b.WriteByte(' ')
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
		if o.Flag {
			b.WriteByte('*')
		}
		b.WriteString(":[")
		for j, f := range o.Fields {
			if j > 0 {
				b.WriteByte(' ')
			}
			if f == NilRef {
				b.WriteByte('-')
			} else {
				fmt.Fprintf(&b, "%d", f)
			}
		}
		b.WriteByte(']')
	}
	b.WriteByte('}')
	return b.String()
}
