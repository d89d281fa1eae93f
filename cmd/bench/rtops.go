package main

// Op streams for the rt-* workloads. A generator is a pure function of
// its seed: it keeps a shadow of what its mutator's roots and graph must
// look like after every op, so it can emit concrete root indexes, say
// which Loads must find a reference, and say how many objects must be
// live at the end. The runtime never influences the stream.

type opKind uint8

const (
	opAlloc   opKind = iota // push a new object as the last root
	opDiscard               // drop root a (the last root moves into a)
	opLoad                  // push field b of root a as the last root; nilOK says it must be NULL
	opStore                 // field b of root a = root c (c < 0 stores NULL)
)

type op struct {
	kind    opKind
	a, b, c int32
	// wantNil is set on a Load whose field the shadow knows to be NULL.
	wantNil bool
}

// appendTo serializes the op; two streams are the same stream exactly
// when their serializations are.
func (o op) appendTo(dst []byte) []byte {
	n := byte(0)
	if o.wantNil {
		n = 1
	}
	return append(dst, byte(o.kind), n,
		byte(o.a), byte(o.a>>8), byte(o.a>>16), byte(o.a>>24),
		byte(o.b), byte(o.b>>8), byte(o.b>>16), byte(o.b>>24),
		byte(o.c), byte(o.c>>8), byte(o.c>>16), byte(o.c>>24))
}

// opGen is one mutator's op stream.
type opGen interface {
	// next writes the next op.
	next(*op)
	// finish returns the ops that drop the stream's temporaries, after
	// which live() objects are reachable from this mutator.
	finish() []op
	live() int
}

// splitmix is SplitMix64: a few nanoseconds per draw, which matters when
// the op it picks takes twenty.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func newSplitmix(seed int64, mutator int) splitmix {
	s := splitmix(uint64(seed)*0x9e3779b97f4a7c15 + uint64(mutator+1)*0xd1342543de82ef95)
	s.next()
	return s
}

// churnGen: allocate, occasionally discard, never more than maxChurnRoots
// roots. Every object dies young; nothing is ever linked.
type churnGen struct {
	rng   splitmix
	roots int32
}

const maxChurnRoots = 8

func (g *churnGen) next(o *op) {
	r := g.rng.next()
	if g.roots >= maxChurnRoots || (g.roots > 1 && r&7 < 3) {
		*o = op{kind: opDiscard, a: int32((r >> 8) % uint64(g.roots))}
		g.roots--
		return
	}
	*o = op{kind: opAlloc}
	g.roots++
}

func (g *churnGen) finish() []op { return nil }
func (g *churnGen) live() int    { return int(g.roots) }

// liveGraphGen walks a private singly linked list of nodes objects built
// at set-up (field 0 = next, never rewritten) and rewrites field 1 of the
// node under its cursor. Root layout: 0 = head, 1 = cursor, 2 = anchor
// (some earlier cursor position), 3 = a detached satellite, when held.
//
// Per op, by chance: store the anchor into cursor.f1 (both barriers, on
// live objects); hang a freshly allocated satellite off cursor.f1; detach
// the cursor's satellite — load it into a root, then delete the only heap
// edge to it, the move the deletion barrier exists for — and later touch
// and drop it; re-anchor; otherwise step the cursor, wrapping at the end.
//
// Stores are one op in 32. The more stores, the more the run measures
// the host's cross-core latency instead of the collector: every barrier
// hit bumps a counter that shares a cache line with the ones the
// collector bumps per marked object, and at one op in 4 two runs of the
// same code differed by 25%.
type liveGraphGen struct {
	rng   splitmix
	nodes int32
	pos   int32 // list position of the cursor, 1..nodes-1
	// sat[p] says node p's field 1 holds a satellite (an object nothing
	// else refers to).
	sat     []bool
	sats    int
	held    bool
	heldAge int
	// queue[qi:qn] is the rest of a multi-op action (never more than two
	// ops; an array, so that the hot loop does not allocate).
	queue  [2]op
	qi, qn int
}

func newLiveGraphGen(seed int64, mutator, nodes int) *liveGraphGen {
	return &liveGraphGen{rng: newSplitmix(seed, mutator), nodes: int32(nodes), pos: 1, sat: make([]bool, nodes)}
}

// heldHold is how many ops a detached satellite stays rooted: long enough
// to span a collection cycle, which is what makes losing it observable.
const heldHold = 4096

func (g *liveGraphGen) setSat(p int32, v bool) {
	if g.sat[p] != v {
		g.sat[p] = v
		if v {
			g.sats++
		} else {
			g.sats--
		}
	}
}

// top is the index a newly pushed root will get.
func (g *liveGraphGen) top() int32 {
	if g.held {
		return 4
	}
	return 3
}

func (g *liveGraphGen) next(o *op) {
	if g.qi < g.qn {
		*o = g.queue[g.qi]
		g.qi++
		return
	}
	if g.held {
		g.heldAge++
		if g.heldAge > heldHold {
			// Touch the satellite (its field 0 is NULL), then drop it.
			*o = op{kind: opLoad, a: 3, b: 0, wantNil: true}
			g.then(op{kind: opDiscard, a: 3})
			g.held = false
			return
		}
	}
	atEnd := g.pos == g.nodes-1
	switch k := g.rng.next() & 255; {
	case k < 2:
		*o = op{kind: opAlloc}
		t := g.top()
		g.then(op{kind: opStore, a: 1, b: 1, c: t}, op{kind: opDiscard, a: t})
		g.setSat(g.pos, true)
	case k < 6 && !g.held && g.sat[g.pos]:
		*o = op{kind: opLoad, a: 1, b: 1}
		g.then(op{kind: opStore, a: 1, b: 1, c: -1})
		g.setSat(g.pos, false)
		g.held, g.heldAge = true, 0
	case k < 14:
		*o = op{kind: opStore, a: 1, b: 1, c: 2}
		g.setSat(g.pos, false)
	case k < 18 && !atEnd:
		*o = op{kind: opLoad, a: 1, b: 0}
		g.then(op{kind: opDiscard, a: 2})
	case atEnd:
		// Past the last node: cursor.next is NULL; restart at head.next.
		*o = op{kind: opLoad, a: 1, b: 0, wantNil: true}
		g.then(op{kind: opLoad, a: 0, b: 0}, op{kind: opDiscard, a: 1})
		g.pos = 1
	default:
		*o = op{kind: opLoad, a: 1, b: 0}
		g.then(op{kind: opDiscard, a: 1})
		g.pos++
	}
}

// then queues the ops that complete the action next just started.
func (g *liveGraphGen) then(ops ...op) {
	g.qi, g.qn = 0, copy(g.queue[:], ops)
}

func (g *liveGraphGen) finish() []op {
	out := append([]op(nil), g.queue[g.qi:g.qn]...)
	g.qi, g.qn = 0, 0
	if g.held {
		out = append(out, op{kind: opDiscard, a: 3})
		g.held = false
	}
	return out
}

func (g *liveGraphGen) live() int { return int(g.nodes) + g.sats }

// streamBytes serializes the first n ops of a generator.
func streamBytes(g opGen, n int) []byte {
	var out []byte
	var o op
	for i := 0; i < n; i++ {
		g.next(&o)
		out = o.appendTo(out)
	}
	return out
}
