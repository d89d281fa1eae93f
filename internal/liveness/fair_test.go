package liveness

import (
	"fmt"
	"slices"
	"testing"
)

// Synthetic-graph tests for the weak-fairness filter: hand-built CSR
// graphs exercise exactly the scheduler-artifact loops the detector
// must exclude, independent of the GC model. All use a 1-mutator
// entity layout: bit 0 = proc(gc), bit 1 = proc(m0), bit 2 = drain(gc),
// bit 3 = drain(m0), bit 4 = hs(m0).
func ents1() entities { return entities{nmut: 1} }

// tedge is one out-edge of a hand-built graph: its target and the
// entities it serves (one of ents1's codes).
type tedge struct {
	to    int32
	taken uint64
}

// csr builds a graph whose node u is Bad for property 0 iff bad[u] is 1
// and has the out-edges out[u], in event-index order. A node's enabled
// set is what its out-edges serve, so an entity enabled at a Bad state
// but not taken on the cycle is stated by an edge leaving the Bad states.
func csr(bad []uint32, out [][]tedge) *graph {
	e := ents1()
	n := len(bad)
	g := &graph{ents: e, taken: e.codes(), hash: make([]uint64, n), bad: bad, estart: make([]int32, n+1)}
	for u, es := range out {
		g.hash[u] = uint64(u + 1)
		for _, x := range es {
			code := slices.Index(g.taken, x.taken)
			if code < 0 {
				panic(fmt.Sprintf("no code serves entities %#x", x.taken))
			}
			g.eto = append(g.eto, x.to)
			g.ecode = append(g.ecode, uint8(code))
		}
		g.estart[u+1] = int32(len(g.eto))
	}
	return g
}

// loop1 builds a Bad node (property 0) with one self-loop of the given
// taken mask, and one edge to a second, good node for each exit mask:
// the entities enabled at the Bad node are taken | exits.
func loop1(taken uint64, exits ...uint64) *graph {
	out := [][]tedge{{{0, taken}}, nil}
	for _, x := range exits {
		out[0] = append(out[0], tedge{1, x})
	}
	return csr([]uint32{1, 0}, out)
}

func TestStutterStarvationLoopNotReported(t *testing.T) {
	e := ents1()
	// The pure-stutter scheduler loop: the mutator spins while the
	// collector has an enabled step at every state of the cycle but is
	// never scheduled. Weak fairness must exclude it.
	g := loop1(e.proc(1), e.proc(0))
	if walk := g.fairCycle(0); walk != nil {
		t.Fatalf("starvation loop reported as fair: %v", walk)
	}
}

func TestDisabledProcessLoopIsFair(t *testing.T) {
	e := ents1()
	// Same loop, but the collector is disabled (blocked) at the state:
	// starving it is no excuse, the cycle is genuinely fair.
	g := loop1(e.proc(1))
	walk := g.fairCycle(0)
	if walk == nil {
		t.Fatal("fair self-loop with the collector disabled was not reported")
	}
	if len(walk) != 1 || walk[0].from != 0 || g.eto[walk[0].j] != 0 {
		t.Fatalf("expected the self-loop as witness, got %v", walk)
	}
}

func TestBufferProcrastinationLoopNotReported(t *testing.T) {
	e := ents1()
	// The "buffer never drains" loop: the dequeue of the collector's
	// buffer is enabled at the state (drain(gc) ∈ en) but the loop never
	// takes it. Hardware would drain the buffer, so this schedule is
	// unfair and must be excluded.
	g := loop1(e.proc(1), e.drain(0))
	if walk := g.fairCycle(0); walk != nil {
		t.Fatalf("buffer-procrastination loop reported as fair: %v", walk)
	}
}

func TestUnpolledHandshakeLoopNotReported(t *testing.T) {
	e := ents1()
	// The mutator loops on some non-handshake step while a poll that
	// would advance the pending handshake is enabled (hs(m0) ∈ en):
	// the §3.1 regular-polling assumption makes this unfair.
	g := loop1(e.proc(1), e.proc(1)|e.hs(0))
	if walk := g.fairCycle(0); walk != nil {
		t.Fatalf("unpolled-handshake loop reported as fair: %v", walk)
	}
}

func TestBadRestrictionSplitsCycle(t *testing.T) {
	e := ents1()
	// Two-node cycle 0 → 1 → 0 where only node 0 is Bad: the property
	// recovers at node 1, so no all-Bad cycle exists and nothing may be
	// reported even though the graph cycle is fair.
	g := csr([]uint32{1, 0}, [][]tedge{{{1, e.proc(1)}}, {{0, e.proc(1)}}})
	if walk := g.fairCycle(0); walk != nil {
		t.Fatalf("cycle through a non-Bad state reported: %v", walk)
	}
}

func TestFairnessNeedsOnlyOneExcusePerEntity(t *testing.T) {
	e := ents1()
	// Two-node all-Bad cycle: the collector is enabled at node 0 (its
	// step leaves for the good node 2) but disabled at node 1. Weak
	// fairness only requires the entity to be disabled somewhere on the
	// cycle, so this is a real violation.
	g := csr([]uint32{1, 1, 0}, [][]tedge{
		{{1, e.proc(1)}, {2, e.proc(0)}},
		{{0, e.proc(1)}},
		nil,
	})
	walk := g.fairCycle(0)
	if walk == nil {
		t.Fatal("fair two-node cycle (collector disabled at one state) not reported")
	}
	// The witness must be closed and must visit node 1 (the collector's
	// disabling state).
	cur := walk[0].from
	visits1 := false
	for _, w := range walk {
		if w.from != cur {
			t.Fatalf("walk not contiguous at %v", w)
		}
		cur = g.eto[w.j]
		if cur == 1 {
			visits1 = true
		}
	}
	if cur != walk[0].from {
		t.Fatalf("walk not closed: ends at %d, started at %d", cur, walk[0].from)
	}
	if !visits1 {
		t.Fatal("witness walk skips the state where the starved process is disabled")
	}
}

func TestTakenEntityOnCycleIsFair(t *testing.T) {
	e := ents1()
	// Both processes enabled throughout (each node's other step leaves
	// for the good node 2) and both take steps on the cycle: nobody is
	// starved, the violation is real.
	g := csr([]uint32{1, 1, 0}, [][]tedge{
		{{1, e.proc(0)}, {2, e.proc(1)}},
		{{0, e.proc(1)}, {2, e.proc(0)}},
		nil,
	})
	if walk := g.fairCycle(0); walk == nil {
		t.Fatal("cycle on which every enabled entity steps was not reported")
	}
}

// pathInSCCRef is pathInSCC as it was with per-call maps: the reference
// the id-indexed scratch must reproduce path for path.
func pathInSCCRef(g *graph, u, v int32, inSCC []bool) []walkEdge {
	if u == v {
		return nil
	}
	prev := make(map[int32]walkEdge)
	queue := []int32{u}
	seen := map[int32]bool{u: true}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		lo, hi := g.outEdges(x)
		for j := lo; j < hi; j++ {
			y := g.eto[j]
			if !inSCC[y] || seen[y] {
				continue
			}
			prev[y] = walkEdge{from: x, j: j}
			if y == v {
				var rev []walkEdge
				for at := v; at != u; at = prev[at].from {
					rev = append(rev, prev[at])
				}
				slices.Reverse(rev)
				return rev
			}
			seen[y] = true
			queue = append(queue, y)
		}
	}
	panic("liveness: SCC not strongly connected")
}

// TestPathInSCCMatchesMapSearch: one scratch serves every path of a
// walk, and each path is the one the map-based search found. The graph
// is a 40-node ring with pseudo-random chords (the component) plus ten
// outside nodes that offer shortcuts a path must not take.
func TestPathInSCCMatchesMapSearch(t *testing.T) {
	const ring, outside = 40, 10
	n := ring + outside
	adj := make([][]int32, n)
	seed := uint32(7)
	rnd := func(k int) int32 {
		seed = seed*1664525 + 1013904223
		return int32(seed>>8) % int32(k)
	}
	for u := 0; u < ring; u++ {
		adj[u] = append(adj[u], int32((u+1)%ring))
		for c := 0; c < 2; c++ {
			adj[u] = append(adj[u], rnd(ring))
		}
		adj[u] = append(adj[u], ring+rnd(outside))
	}
	for u := ring; u < n; u++ {
		adj[u] = append(adj[u], rnd(ring))
	}
	g := &graph{estart: make([]int32, n+1), hash: make([]uint64, n)}
	for u := range adj {
		g.eto = append(g.eto, adj[u]...)
		g.estart[u+1] = int32(len(g.eto))
	}
	inSCC := make([]bool, n)
	for u := 0; u < ring; u++ {
		inSCC[u] = true
	}
	sc := newPathScratch(n)
	for u := int32(0); u < ring; u++ {
		for v := int32(0); v < ring; v++ {
			got := g.pathInSCC(u, v, inSCC, sc)
			if want := pathInSCCRef(g, u, v, inSCC); !slices.Equal(got, want) {
				t.Fatalf("path %d→%d: got %v, want %v", u, v, got, want)
			}
		}
	}
}
