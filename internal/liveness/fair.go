package liveness

// Fair-cycle detection. For property i, a counterexample is a reachable
// cycle whose every state satisfies Bad_i and which is weakly fair:
// each fairness entity is either taken by some edge of the cycle or
// disabled at some state of the cycle. The search runs Tarjan's SCC
// algorithm on the subgraph induced by the Bad_i states and applies a
// component-level criterion:
//
//	fair(C) ⇔ C has an internal edge ∧
//	          (∧_{u∈C} en[u]) &^ (∨_{e internal to C} taken[e]) == 0
//
// where en[u], the entities enabled at u, is the union of the taken sets
// of u's out-edges.
//
// Soundness: any weakly fair Bad-cycle lies inside one SCC C of the Bad
// subgraph; every entity enabled at all states of the cycle is in
// particular enabled at... — more carefully, the two directions are:
//
//   - If C satisfies the criterion, a fair cycle exists: walk C visiting,
//     for each entity in ∧en, one edge that takes it (such an edge
//     exists since the entity is not in ∧en &^ ∨taken), and for each
//     remaining entity nothing special — the closed walk stays inside C
//     (strong connectivity), so every entity is either taken on the walk
//     or, if not in ∧en, disabled at some state of C which the walk can
//     also visit. buildWalk constructs exactly this witness.
//   - Conversely, if some weakly fair Bad-cycle exists, its states form
//     a strongly connected subset of the Bad subgraph, hence lie in one
//     SCC C. Every entity either is taken on the cycle (an internal edge
//     of C, so it is in ∨taken) or is disabled at some cycle state u
//     (so en[u] misses it and it is not in ∧en). Thus C — possibly a
//     larger SCC containing the cycle — satisfies the criterion, because
//     enlarging C only shrinks ∧en and grows ∨taken.
//
// Trivial SCCs (single node, no self-loop) have no internal edge and
// are never fair.

// walkEdge is one edge of a witness walk: the global CSR edge index j
// leaving node from (its target is eto[j]).
type walkEdge struct {
	from int32
	j    int32
}

// fairCycle searches for a weakly fair cycle on which property pi's Bad
// predicate holds throughout, returning a closed witness walk starting
// and ending at its first node, or nil if every reachable Bad-SCC is
// unfair. The result is deterministic: Tarjan visits nodes in id order.
func (g *graph) fairCycle(pi int) []walkEdge {
	pbit := uint32(1) << uint(pi)
	n := int32(len(g.hash))

	const none = int32(-1)
	index := make([]int32, n) // Tarjan discovery index, or none
	low := make([]int32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = none
	}
	var next int32
	var stack []int32        // Tarjan's component stack
	inSCC := make([]bool, n) // membership scratch, reused per SCC

	// Iterative DFS: one frame per open node, ei is the cursor into its
	// CSR edge range, loop records a self-loop met on the way.
	type frame struct {
		v    int32
		ei   int32
		loop bool
	}
	var dfs []frame

	for root := int32(0); root < n; root++ {
		if index[root] != none || g.bad[root]&pbit == 0 {
			continue
		}
		dfs = append(dfs[:0], frame{v: root, ei: g.estart[root]})
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true

		for len(dfs) > 0 {
			f := &dfs[len(dfs)-1]
			v := f.v
			if f.ei < g.estart[v+1] {
				w := g.eto[f.ei]
				f.ei++
				f.loop = f.loop || w == v
				if g.bad[w]&pbit == 0 {
					continue
				}
				if index[w] == none {
					dfs = append(dfs, frame{v: w, ei: g.estart[w]})
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			// v is finished: pop its SCC if it is a root.
			loop := f.loop
			dfs = dfs[:len(dfs)-1]
			if len(dfs) > 0 && low[v] < low[dfs[len(dfs)-1].v] {
				low[dfs[len(dfs)-1].v] = low[v]
			}
			if low[v] != index[v] {
				continue
			}
			// Pop the component off the stack.
			i := len(stack)
			for i > 0 && index[stack[i-1]] >= index[v] {
				i--
			}
			scc := stack[i:]
			stack = stack[:i]
			if len(scc) == 1 && !loop {
				// Trivial: no internal edge, never fair. On a clean
				// model every component is one.
				onStack[v] = false
				continue
			}
			for _, u := range scc {
				onStack[u] = false
				inSCC[u] = true
			}
			walk := g.checkSCC(scc, inSCC)
			for _, u := range scc {
				inSCC[u] = false
			}
			if walk != nil {
				return walk
			}
		}
	}
	return nil
}

// checkSCC applies the weak-fairness criterion to one SCC of the Bad
// subgraph (inSCC is the membership array, set for exactly the SCC's
// nodes) and builds the witness walk if it passes.
func (g *graph) checkSCC(scc []int32, inSCC []bool) []walkEdge {
	var internal []walkEdge
	andEn := ^uint64(0)
	orTaken := uint64(0)
	for _, u := range scc {
		// The enabled set is the out-edges' taken sets, those leaving C
		// included.
		en := uint64(0)
		lo, hi := g.outEdges(u)
		for j := lo; j < hi; j++ {
			t := g.takenAt(j)
			en |= t
			if inSCC[g.eto[j]] {
				internal = append(internal, walkEdge{from: u, j: j})
				orTaken |= t
			}
		}
		andEn &= en
	}
	if len(internal) == 0 || andEn&^orTaken != 0 {
		return nil
	}
	return g.buildWalk(scc, inSCC, andEn, internal)
}

// buildWalk stitches a concrete closed walk witnessing the fairness of
// an SCC: starting from the component's entry node (smallest id, hence
// shortest stem), it visits one taking edge for each entity enabled
// throughout the component and one disabling node for each entity that
// is not, then returns to the start. Segments are shortest paths inside
// the component, so the walk is compact though not minimal.
func (g *graph) buildWalk(scc []int32, inSCC []bool, andEn uint64, internal []walkEdge) []walkEdge {
	head := scc[0]
	for _, u := range scc {
		if u < head {
			head = u
		}
	}

	// Targets: for each entity, an edge to traverse (taken somewhere in
	// the SCC) or a node to visit (disabled somewhere in the SCC).
	// Entities outside both categories are disabled at every node, so
	// any walk satisfies them. At least one edge target is always
	// present so the walk is a genuine cycle even when no entity
	// constrains it.
	var edgeTargets []walkEdge
	var nodeTargets []int32
	covered := uint64(0)
	for b := 0; b < g.ents.count(); b++ {
		bit := uint64(1) << uint(b)
		if andEn&bit != 0 {
			if covered&bit != 0 {
				continue
			}
			for _, e := range internal {
				if t := g.takenAt(e.j); t&bit != 0 {
					edgeTargets = append(edgeTargets, e)
					covered |= t
					break
				}
			}
		} else if g.enabled(head)&bit != 0 {
			// Enabled at the head but not throughout: route the walk
			// through a node where it is disabled.
			for _, u := range scc {
				if g.enabled(u)&bit == 0 {
					nodeTargets = append(nodeTargets, u)
					break
				}
			}
		}
	}
	if len(edgeTargets) == 0 {
		edgeTargets = append(edgeTargets, internal[0])
	}

	var walk []walkEdge
	sc := newPathScratch(len(g.hash))
	cur := head
	for _, e := range edgeTargets {
		walk = append(walk, g.pathInSCC(cur, e.from, inSCC, sc)...)
		walk = append(walk, e)
		cur = g.eto[e.j]
	}
	for _, u := range nodeTargets {
		walk = append(walk, g.pathInSCC(cur, u, inSCC, sc)...)
		cur = u
	}
	walk = append(walk, g.pathInSCC(cur, head, inSCC, sc)...)
	return walk
}

// pathScratch is pathInSCC's breadth-first search state, indexed by node
// id and reused across the calls of one buildWalk: y has been reached in
// the current call iff seen[y] == stamp, over the edge prev[y].
type pathScratch struct {
	seen  []uint32
	stamp uint32
	prev  []walkEdge
	queue []int32
}

func newPathScratch(n int) *pathScratch {
	return &pathScratch{seen: make([]uint32, n), prev: make([]walkEdge, n)}
}

// pathInSCC returns a shortest edge path from u to v using only nodes
// of the component (empty if u == v). Strong connectivity guarantees
// one exists.
func (g *graph) pathInSCC(u, v int32, inSCC []bool, sc *pathScratch) []walkEdge {
	if u == v {
		return nil
	}
	sc.stamp++
	sc.seen[u] = sc.stamp
	sc.queue = append(sc.queue[:0], u)
	for h := 0; h < len(sc.queue); h++ {
		x := sc.queue[h]
		lo, hi := g.outEdges(x)
		for j := lo; j < hi; j++ {
			y := g.eto[j]
			if !inSCC[y] || sc.seen[y] == sc.stamp {
				continue
			}
			sc.prev[y] = walkEdge{from: x, j: j}
			if y == v {
				var rev []walkEdge
				for at := v; at != u; at = sc.prev[at].from {
					rev = append(rev, sc.prev[at])
				}
				for i, k := 0, len(rev)-1; i < k; i, k = i+1, k-1 {
					rev[i], rev[k] = rev[k], rev[i]
				}
				return rev
			}
			sc.seen[y] = sc.stamp
			sc.queue = append(sc.queue, y)
		}
	}
	panic("liveness: SCC not strongly connected")
}
