package cimp

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
)

// Index compiles a program once per model. It assigns every command node
// a stable small-integer identity (for compact frame-stack encodings) and
// records, in the slot each node carries, the node's static unfolding:
// the frames deterministic control pushes in place of the node before it
// reaches an action, a Choose, or a data-dependent Cond/While. The step
// engine (step.go) then enumerates enabled actions by walking these
// tables instead of re-deriving them per state. Programs are static
// command graphs built once; a program belongs to exactly one Index.
//
// Static unfoldings, by node kind:
//
//	action, Choose, Cond, While   the node itself (unfolding stops here)
//	Skip                          nothing
//	Seq{A, B}                     unfold(A) ++ [B], or unfold(B) when A unfolds to nothing
//	Loop{Body}                    unfold(Body) ++ [Loop]
//
// A Loop whose body unfolds to nothing keeps itself as its unfolding, so
// stepping it trips the divergence guard rather than looping forever.
//
// The index also owns the configuration table (memo.go), which interns
// process configurations by their canonical bytes and caches the step
// relation per configuration.
type Index[S any] struct {
	coms []Com[S]
	skip int // the identity every Skip shares, or -1 if the program has none

	// enc is the data-state encoder; a configuration's canonical bytes are
	// AppendStack of its stack followed by enc of its data. nil (or a data
	// type that == cannot compare) leaves the configuration table unused.
	enc        func(s S, dst []byte) []byte
	comparable bool
	// The current tables (fused, unfused; created on first use), the
	// bounds a table starts at and may grow to, and the counters that
	// outlive a retired table.
	memos             [2]atomic.Pointer[memo[S]]
	memoBase, memoMax uint32
	interned, retired atomic.Int64
	stats             [statStripes]statStripe
	// scratch pools the Scratch values of Successors calls.
	scratch sync.Pool
}

// NewIndex compiles all the given program roots into one index. enc
// appends a canonical encoding of a data state — equal bytes for equal
// states, and only for them — and is what keys the configuration table;
// with a nil enc nothing is cached and every step is computed afresh.
func NewIndex[S any](enc func(s S, dst []byte) []byte, roots ...Com[S]) *Index[S] {
	ix := &Index[S]{
		skip: -1, enc: enc,
		comparable: reflect.TypeOf((*S)(nil)).Elem().Comparable(),
		memoBase:   baseRecords, memoMax: maxRecords,
	}
	for _, r := range roots {
		ix.walk(r)
	}
	return ix
}

// walk visits c and its descendants in depth-first pre-order (the order
// identities are assigned in) and returns c's static unfolding.
func (ix *Index[S]) walk(c Com[S]) []Com[S] {
	if c == nil {
		return nil
	}
	n := c.meta()
	if n == nil { // Skip
		if ix.skip < 0 {
			ix.skip = len(ix.coms)
			ix.coms = append(ix.coms, c)
		}
		return nil
	}
	if n.ix == ix {
		return n.pre
	}
	if n.ix != nil {
		panic(fmt.Sprintf("cimp: command %T %q already belongs to another index", c, c.Label()))
	}
	n.ix, n.id = ix, len(ix.coms)
	ix.coms = append(ix.coms, c)
	n.self[0] = c
	n.pre = n.self[:]
	switch c := c.(type) {
	case *Seq[S]:
		a, b := ix.walk(c.A), ix.walk(c.B)
		if len(a) > 0 {
			n.pre = concat(a, []Com[S]{c.B})
		} else {
			n.pre = b
		}
	case *Cond[S]:
		ix.walk(c.Then)
		ix.walk(c.Else)
	case *While[S]:
		ix.walk(c.Body)
	case *Loop[S]:
		if body := ix.walk(c.Body); len(body) > 0 {
			n.pre = concat(body, n.self[:])
		}
	case *Choose[S]:
		for _, a := range c.Alts {
			ix.walk(a)
		}
	}
	return n.pre
}

// ID returns the identity of a command node; the node must belong to this
// index.
func (ix *Index[S]) ID(c Com[S]) int {
	n := c.meta()
	switch {
	case n == nil && ix.skip >= 0:
		return ix.skip
	case n != nil && n.ix == ix:
		return n.id
	}
	panic(fmt.Sprintf("cimp: command %T %q not in index", c, c.Label()))
}

// Len reports the number of indexed command nodes.
func (ix *Index[S]) Len() int { return len(ix.coms) }

// Com returns the command node with identity id, or false when id is out
// of range. It is the inverse of ID, used to decode serialized stacks.
func (ix *Index[S]) Com(id int) (Com[S], bool) {
	if id < 0 || id >= len(ix.coms) {
		return nil, false
	}
	return ix.coms[id], true
}

// AppendStack appends a compact encoding of a frame stack to dst.
func (ix *Index[S]) AppendStack(dst []byte, stack []Com[S]) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(stack)))
	for _, c := range stack {
		dst = binary.AppendUvarint(dst, uint64(ix.ID(c)))
	}
	return dst
}

// DecodeStack decodes a frame stack encoded by AppendStack, returning
// the stack and the remaining bytes. Command identities are resolved
// through the index, so the decoded stack aliases the (immutable)
// program graph the index was built over. Malformed input — a truncated
// varint, an out-of-range identity, or an absurd length — is an error,
// never a panic: checkpoint loading must reject corruption gracefully.
func (ix *Index[S]) DecodeStack(data []byte) ([]Com[S], []byte, error) {
	n, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, nil, fmt.Errorf("cimp: truncated stack length")
	}
	data = data[k:]
	if n > uint64(len(ix.coms)) {
		// A stack can never hold more frames than there are command
		// nodes: Norm collapses structural wrappers and programs are
		// finite, so any larger count is corruption.
		return nil, nil, fmt.Errorf("cimp: stack length %d exceeds program size %d", n, len(ix.coms))
	}
	stack := make([]Com[S], 0, n)
	for i := uint64(0); i < n; i++ {
		id, k := binary.Uvarint(data)
		if k <= 0 {
			return nil, nil, fmt.Errorf("cimp: truncated stack entry %d", i)
		}
		data = data[k:]
		c, ok := ix.Com(int(id))
		if !ok {
			return nil, nil, fmt.Errorf("cimp: stack entry %d: command id %d not in index (%d commands)", i, id, len(ix.coms))
		}
		stack = append(stack, c)
	}
	return stack, data, nil
}
