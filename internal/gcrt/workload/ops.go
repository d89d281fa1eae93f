// Package workload generates adversarial heap workloads for the gcrt
// runtime and drives them with the online invariant oracle attached.
//
// Op streams are a pure function of (seed, shape, mutator id), so a
// failing configuration replays exactly, and Shrink minimizes a failing
// program: drop a whole mutator, then single ops, keeping any removal
// that preserves the failure.
//
// The shapes are chosen to stress the protocol windows the paper's
// proof obligations guard: DeepList grows long unlink-able chains
// (deletion-barrier load), WideTree fans out from a hub (insertion
// pressure), Cycles builds unreachable cycles (trace termination),
// Churn does load-then-unlink on a cache (the E11 lost-object pattern:
// a reference loaded into an unscanned root just before its only heap
// edge is severed), and Pipeline publishes objects between mutators
// through a shared hub (cross-thread reachability hand-off).
package workload

import (
	"math/rand"
	"runtime"

	"repro/internal/gcrt"
)

// Shape selects the heap-graph pattern a mutator builds.
type Shape int

const (
	DeepList Shape = iota
	WideTree
	Cycles
	Churn
	Pipeline
)

func (s Shape) String() string {
	switch s {
	case DeepList:
		return "deeplist"
	case WideTree:
		return "widetree"
	case Cycles:
		return "cycles"
	case Churn:
		return "churn"
	case Pipeline:
		return "pipeline"
	}
	return "unknown"
}

// Shapes lists every generator, for table-driven tests.
var Shapes = []Shape{DeepList, WideTree, Cycles, Churn, Pipeline}

// OpKind is the interpreted mutator instruction set. Every op works on
// a small register file of root handles; ops whose registers are empty
// are skipped, which keeps any subsequence of a program executable —
// the property Shrink relies on.
type OpKind int

const (
	OpAlloc  OpKind = iota // R = new object (old R dropped)
	OpCopy                 // B = A
	OpLink                 // A.F = B
	OpUnlink               // A.F = null
	OpLoad                 // B = A.F (skipped when A.F is null)
	OpDrop                 // drop R's root
)

// Op is one interpreted instruction. A and B are register numbers
// (0..nregs-1), F a field number.
type Op struct {
	Kind OpKind
	A, B int
	F    int
}

// nregs is the per-mutator register-file size. Register 0 is reserved
// for the shared hub in the Pipeline shape; generators for that shape
// never overwrite it.
const nregs = 8

// Ops generates mutator id's deterministic op stream of length n for
// the given config. It is a pure function of (cfg.Seed, cfg.Shape, id):
// the same arguments always produce the same stream.
func Ops(cfg Config, id, n int) []Op {
	rnd := rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(id)))
	fields := cfg.fields()
	ops := make([]Op, 0, n)
	emit := func(o Op) { ops = append(ops, o) }
	if cfg.Shape == WideTree {
		emit(Op{Kind: OpAlloc, A: 1}) // the long-lived hub
	}
	for len(ops) < n {
		switch cfg.Shape {
		case DeepList:
			// Prepend a node: new.next = head; head = new. Occasionally
			// walk into the list and sever behind the walker — the
			// deletion-barrier load: the walker's root is unscanned if
			// taken mid-cycle, and the unlink is its only heap edge.
			emit(Op{Kind: OpAlloc, A: 2})
			emit(Op{Kind: OpLink, A: 2, F: 0, B: 1})
			emit(Op{Kind: OpCopy, A: 2, B: 1})
			if rnd.Intn(4) == 0 {
				// Walk a few links in and sever a *deep* edge: interior
				// next-pointers were written when their node was prepended,
				// so a cut at depth k severs an edge ~3k ops old — old
				// enough to predate a mark-sense flip, which is what makes
				// the victim white when the deletion barrier is ablated.
				// The hidden pointer (register 4) is loaded before the cut,
				// exactly the E11 lost-object interleaving.
				emit(Op{Kind: OpLoad, A: 1, F: 0, B: 3})
				for k := rnd.Intn(3); k > 0; k-- {
					emit(Op{Kind: OpLoad, A: 3, F: 0, B: 3})
				}
				emit(Op{Kind: OpLoad, A: 3, F: 0, B: 4})
				emit(Op{Kind: OpUnlink, A: 3, F: 0})
				emit(Op{Kind: OpLoad, A: 4, F: 0, B: 4})
				emit(Op{Kind: OpDrop, A: 3})
				emit(Op{Kind: OpDrop, A: 4})
			}
			if rnd.Intn(32) == 0 {
				emit(Op{Kind: OpDrop, A: 1}) // drop the whole chain
			}
		case WideTree:
			// Fan children out of the long-lived hub in register 1.
			if rnd.Intn(64) == 0 {
				emit(Op{Kind: OpAlloc, A: 1}) // drop the whole tree, fresh hub
			}
			for i := 0; i < 3; i++ {
				emit(Op{Kind: OpAlloc, A: 2})
				emit(Op{Kind: OpLink, A: 1, F: rnd.Intn(fields), B: 2})
				emit(Op{Kind: OpDrop, A: 2})
			}
			emit(Op{Kind: OpLoad, A: 1, F: rnd.Intn(fields), B: 3})
			emit(Op{Kind: OpDrop, A: 3})
		case Cycles:
			// Build a 2- or 3-cycle, then drop every root into it.
			emit(Op{Kind: OpAlloc, A: 1})
			emit(Op{Kind: OpAlloc, A: 2})
			emit(Op{Kind: OpLink, A: 1, F: 0, B: 2})
			if rnd.Intn(2) == 0 {
				emit(Op{Kind: OpLink, A: 2, F: 0, B: 1})
			} else {
				emit(Op{Kind: OpAlloc, A: 3})
				emit(Op{Kind: OpLink, A: 2, F: 0, B: 3})
				emit(Op{Kind: OpLink, A: 3, F: 0, B: 1})
				emit(Op{Kind: OpDrop, A: 3})
			}
			emit(Op{Kind: OpDrop, A: 2})
			if rnd.Intn(2) == 0 {
				emit(Op{Kind: OpDrop, A: 1})
			}
		case Churn:
			// High-churn cache over registers 1..6: overwrite entries,
			// and do the load-then-unlink pattern through a field.
			slot := 1 + rnd.Intn(6)
			switch rnd.Intn(4) {
			case 0, 1:
				emit(Op{Kind: OpAlloc, A: slot})
				other := 1 + rnd.Intn(6)
				emit(Op{Kind: OpLink, A: slot, F: rnd.Intn(fields), B: other})
			case 2:
				f := rnd.Intn(fields)
				emit(Op{Kind: OpLoad, A: slot, F: f, B: 7})
				emit(Op{Kind: OpUnlink, A: slot, F: f})
				emit(Op{Kind: OpLoad, A: 7, F: 0, B: 7})
				emit(Op{Kind: OpDrop, A: 7})
			default:
				emit(Op{Kind: OpDrop, A: slot})
			}
		case Pipeline:
			// Produce into the shared hub (register 0, set up by Run),
			// consume what some other mutator published. Producers and
			// consumers overlap on hub fields, so references cross
			// mutators mid-cycle.
			prod := id % fields
			cons := (id + 1) % fields
			emit(Op{Kind: OpAlloc, A: 1})
			emit(Op{Kind: OpAlloc, A: 2})
			emit(Op{Kind: OpLink, A: 1, F: 0, B: 2})
			emit(Op{Kind: OpDrop, A: 2})
			emit(Op{Kind: OpLink, A: 0, F: prod, B: 1})
			emit(Op{Kind: OpDrop, A: 1})
			emit(Op{Kind: OpLoad, A: 0, F: cons, B: 3})
			if rnd.Intn(2) == 0 {
				emit(Op{Kind: OpUnlink, A: 0, F: cons})
			}
			emit(Op{Kind: OpLoad, A: 3, F: 0, B: 4})
			emit(Op{Kind: OpDrop, A: 3})
			emit(Op{Kind: OpDrop, A: 4})
		}
	}
	return ops[:n]
}

// NewProgram generates the full per-mutator program for a config.
func NewProgram(cfg Config) [][]Op {
	prog := make([][]Op, cfg.mutators())
	for id := range prog {
		prog[id] = Ops(cfg, id, cfg.opsPerMutator())
	}
	return prog
}

// Shrink greedily minimizes a failing program: repeatedly try dropping
// a whole mutator's stream, then a single op, keeping any removal after
// which fails still reports true, until no removal preserves the
// failure. Deterministic given a deterministic predicate.
func Shrink(prog [][]Op, fails func([][]Op) bool) [][]Op {
	for changed := true; changed; {
		changed = false
		for m := 0; m < len(prog) && !changed; m++ {
			q := cloneProgram(prog)
			q = append(q[:m], q[m+1:]...)
			if len(q) > 0 && fails(q) {
				prog, changed = q, true
			}
		}
		for m := 0; m < len(prog) && !changed; m++ {
			for i := 0; i < len(prog[m]) && !changed; i++ {
				q := cloneProgram(prog)
				q[m] = append(q[m][:i:i], q[m][i+1:]...)
				if fails(q) {
					prog, changed = q, true
				}
			}
		}
	}
	return prog
}

func cloneProgram(prog [][]Op) [][]Op {
	q := make([][]Op, len(prog))
	for i, ops := range prog {
		q[i] = append([]Op(nil), ops...)
	}
	return q
}

// interp executes ops against a mutator, maintaining the register-file
// → root-index mapping (Discard moves the last root into the vacated
// slot, so the mapping must be patched on every drop).
type interp struct {
	m     *Mutator
	reg   [nregs]int // root index per register, -1 = empty
	count int
}

// safePointEvery is the number of ops between GC-safe points. Real
// compilers emit safe points at loop back-edges and call returns, not at
// every instruction; a period > 1 is what opens the protocol windows an
// adversarial workload needs — with a safe point after every op, a
// mutator acknowledges each handshake round immediately and its stores
// never land between the enable-barriers round and its own root scan.
const safePointEvery = 4

// Mutator aliases gcrt.Mutator so the interpreter reads naturally.
type Mutator = gcrt.Mutator

func newInterp(m *Mutator) *interp {
	it := &interp{m: m}
	for i := range it.reg {
		it.reg[i] = -1
	}
	return it
}

// drop discards the root held by register r, patching whichever
// register pointed at the moved last root.
func (it *interp) drop(r int) {
	ri := it.reg[r]
	if ri < 0 {
		return
	}
	last := it.m.NumRoots() - 1
	it.m.Discard(ri)
	it.reg[r] = -1
	if ri != last {
		for j := range it.reg {
			if it.reg[j] == last {
				it.reg[j] = ri
			}
		}
	}
}

// adopt binds register r to root index ri (dropping r's old root
// first happens in the callers that need it).
func (it *interp) set(r, ri int) { it.reg[r] = ri }

// step executes one op and services a safe point every safePointEvery ops;
// ops over empty registers are skipped (but the safe-point cadence
// continues, so any subsequence of a program keeps handshakes live).
func (it *interp) step(op Op) {
	it.exec(op)
	it.count++
	if it.count%safePointEvery == 0 {
		it.m.SafePoint()
		// Yield at every safe point so the collector goroutine advances
		// between handshake rounds even on GOMAXPROCS=1. Without this a
		// spinning mutator holds the only P for a full preemption quantum
		// (~10ms, hundreds of thousands of ops): churn-style workloads
		// then exhaust the arena and re-link every edge long before the
		// root scan, so no pre-flip (white) edge ever survives into the
		// marking window and the protocol races the workload exists to
		// exercise can never be observed.
		runtime.Gosched()
	}
}

func (it *interp) exec(op Op) {
	m := it.m
	switch op.Kind {
	case OpAlloc:
		ri := m.Alloc()
		if ri < 0 {
			// Allocation stall: keep the old root (dropping it anyway would
			// bleed every register to empty whenever the arena is
			// exhausted), service a safe point and yield so an in-flight
			// collection can reach its sweep — the runtime-scale analogue
			// of a mutator blocking on the allocator.
			m.SafePoint()
			runtime.Gosched()
			return
		}
		// The fresh root is the new last; discarding A's old root moves it
		// into the vacated slot.
		if old := it.reg[op.A]; old >= 0 {
			it.reg[op.A] = -1
			m.Discard(old)
			it.set(op.A, old)
		} else {
			it.set(op.A, ri)
		}
	case OpCopy:
		if it.reg[op.A] < 0 || op.A == op.B {
			return
		}
		it.drop(op.B)
		it.set(op.B, m.AdoptRoot(m.Root(it.reg[op.A])))
	case OpLink:
		if it.reg[op.A] < 0 || it.reg[op.B] < 0 {
			return
		}
		m.Store(it.reg[op.A], op.F, it.reg[op.B])
	case OpUnlink:
		if it.reg[op.A] < 0 {
			return
		}
		m.Store(it.reg[op.A], op.F, -1)
	case OpLoad:
		if it.reg[op.A] < 0 {
			return
		}
		ri := m.Load(it.reg[op.A], op.F)
		if ri < 0 {
			return
		}
		// The loaded root is the new last; discarding B's old root moves
		// it into the vacated slot (supports A == B for list walks).
		if old := it.reg[op.B]; old >= 0 {
			it.reg[op.B] = -1
			m.Discard(old)
			it.set(op.B, old)
		} else {
			it.set(op.B, ri)
		}
	case OpDrop:
		it.drop(op.A)
	}
}
