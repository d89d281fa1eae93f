package liveness

import (
	"cmp"
	"fmt"
	"math/bits"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/gcmodel"
)

// graph is the materialized reachable state graph of one bounded model
// instance. The safety checker never stores edges — it only needs the
// BFS frontier — but cycle detection needs the whole graph at once, so
// a Recorder logs every transition explore.Run takes and the graph is
// built from that log: a compressed-sparse-row edge list beside the
// per-node hash and Bad bits. Everything else the fairness check and the
// lasso need is derived: an edge's event index from its CSR slot, a
// node's enabled set from its out-edges, its depth from the layer
// offsets, and BFS parents by one pass over the CSR when a lasso is
// built. A node is its 64-bit fingerprint hash plus its (parent,
// event-index) recipe, exactly the representation the safety checker
// replays traces from.
type graph struct {
	m    *gcmodel.Model
	ents entities
	// taken maps an edge's code to the fairness entities it serves
	// (ents.codes()).
	taken []uint64

	// Per-node arrays, indexed by node id. Ids are assigned by BFS depth,
	// then fingerprint hash, so they do not depend on which worker found
	// a state first; the nodes at depth d are layer[d] .. layer[d+1]-1.
	hash  []uint64 // fingerprint hash
	bad   []uint32 // property bitmask: bit i ⇔ props[i].Bad holds here
	layer []int32

	// CSR out-edges: node u's edges occupy indices estart[u] ..
	// estart[u+1]-1, in event-index order, so edge j's event index is
	// j-estart[u]. The engine expands a state fully or not at all, so a
	// node cut off by MaxDepth, MaxStates or an interruption has no
	// out-edges and no cycle passes through it: capped runs
	// under-approximate, they never fabricate violations.
	estart []int32
	eto    []int32 // target node id
	ecode  []uint8 // fairness entities this edge serves, as a code into taken
}

// bytes is the payload memory retained by the graph arrays.
func (g *graph) bytes() int64 {
	nodes := int64(len(g.hash))*(8+4) + int64(len(g.estart))*4 + int64(len(g.layer))*4
	edges := int64(len(g.eto)) * (4 + 1)
	return nodes + edges + int64(len(g.taken))*8
}

// outEdges returns the CSR index range of node u's out-edges.
func (g *graph) outEdges(u int32) (int32, int32) {
	return g.estart[u], g.estart[u+1]
}

// takenAt returns the fairness entities edge j serves.
func (g *graph) takenAt(j int32) uint64 { return g.taken[g.ecode[j]] }

// enabled returns the fairness entities enabled at u: those its
// out-edges serve.
func (g *graph) enabled(u int32) uint64 {
	en := uint64(0)
	lo, hi := g.outEdges(u)
	for j := lo; j < hi; j++ {
		en |= g.takenAt(j)
	}
	return en
}

// parents returns every node's BFS parent: the source of its least
// (source, event index) in-edge from the previous layer, which is the
// first such edge an ascending pass over the CSR meets (-1 at the root).
func (g *graph) parents() []int32 {
	parent := make([]int32, len(g.hash))
	for v := range parent {
		parent[v] = -1
	}
	d := 0
	for u := int32(0); u < int32(len(g.hash)); u++ {
		for u >= g.layer[d+1] {
			d++
		}
		if d+2 >= len(g.layer) {
			break // the deepest layer has no successor layer
		}
		lo, hi := g.layer[d+1], g.layer[d+2]
		for j := g.estart[u]; j < g.estart[u+1]; j++ {
			if v := g.eto[j]; lo <= v && v < hi && parent[v] < 0 {
				parent[v] = u
			}
		}
	}
	return parent
}

// build turns the log into the graph on procs goroutines, releasing the
// log as it goes. Node ids are ordered by (depth, hash) and a node's
// edges by event index, so the graph — and every verdict and lasso
// derived from it — is the same for every worker count and every procs.
//
// The node records are bucketed by the top bits of their hash and each
// run of buckets is sorted in parallel; in that hash order they give the
// ids (a stable counting sort over depth) and, numbered, serve as the
// index that resolves a run's source and an edge's target. A source has
// one run, so its degree and CSR slots are written by the goroutine
// that reads that run's log and no other.
func (r *Recorder) build(procs int) (*graph, error) {
	logs := slices.DeleteFunc(slices.Clone(r.workerLogs()), func(l *workerLog) bool { return l == nil })
	n := 0
	maxDepth := int32(0)
	for _, l := range logs {
		if l.broken != nil {
			return nil, l.broken
		}
		n += l.nodes.n
		for _, c := range l.nodes.cs {
			for _, nd := range c {
				maxDepth = max(maxDepth, nd.depth)
			}
		}
	}
	x := newHashIndex(n)
	// next[d] is the id of the next node at depth d met in hash order.
	next := make([]int32, maxDepth+2)
	for _, l := range logs {
		for _, c := range l.nodes.cs {
			for _, nd := range c {
				x.count(nd.hash)
				next[nd.depth+1]++
			}
		}
	}
	for d := 1; d < len(next); d++ {
		next[d] += next[d-1]
	}
	x.seal()
	for _, l := range logs {
		for i := range l.nodes.n {
			x.place(l.nodes.take(i))
		}
		l.nodes = chunks[nodeRec]{}
	}
	if err := x.sort(procs); err != nil {
		return nil, err
	}

	g := &graph{
		m: r.m, ents: r.ents, taken: r.ents.codes(),
		hash:   make([]uint64, n),
		bad:    make([]uint32, n),
		layer:  slices.Clone(next),
		estart: make([]int32, n+1),
	}
	for i := range x.nodes {
		nd := &x.nodes[i]
		id := next[nd.depth]
		next[nd.depth]++
		g.hash[id], g.bad[id] = nd.hash, nd.bad
		nd.depth = id
	}

	// Out-degrees straight from the runs, then their prefix sums. A
	// second run of one source, on any log, finds its degree written.
	err := parallel(procs, len(logs), func(w int) error {
		for _, c := range logs[w].runs.cs {
			for i := range c {
				rn := &c[i]
				u, ok := x.lookup(rn.from)
				if !ok || !atomic.CompareAndSwapInt32(&g.estart[u+1], 0, rn.deg) {
					return partialLog(rn.from, 0)
				}
				rn.id = u
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for u := 0; u < n; u++ {
		g.estart[u+1] += g.estart[u]
	}
	g.eto = make([]int32, g.estart[n])
	g.ecode = make([]uint8, g.estart[n])
	// A run's edges are its source's slots in order.
	err = parallel(procs, len(logs), func(w int) error {
		l := logs[w]
		j := 0
		for i := range l.runs.n {
			rn := l.runs.take(i)
			base := g.estart[rn.id]
			for k := range rn.deg {
				v, ok := x.lookup(l.to.take(j))
				if !ok {
					return partialLog(rn.from, int(k))
				}
				g.eto[base+k], g.ecode[base+k] = v, l.code.take(j)
				j++
			}
		}
		l.runs, l.to, l.code = chunks[runRec]{}, chunks[uint64]{}, chunks[uint8]{}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return g, nil
}

// hashIndex resolves a recorded hash to its node id without a map: the
// node records in hash order, and for each value of the hash's top bits
// the offset of the first record carrying it. With ⌈log₂ n⌉ top bits a
// bucket holds about one record; lookups are exact whatever the spread,
// only their speed depends on it. It is filled by counting every hash,
// sealing, placing every record and sorting; once the build has written
// each record's id over its depth, lookup returns that id.
type hashIndex struct {
	nodes []nodeRec
	start []int32 // bucket b is nodes[start[b]:start[b+1]]
	shift uint
}

func newHashIndex(n int) *hashIndex {
	b := 0
	if n > 1 {
		b = bits.Len(uint(n - 1))
	}
	return &hashIndex{
		nodes: make([]nodeRec, n),
		start: make([]int32, 1<<b+1),
		shift: uint(64 - b),
	}
}

// count notes one hash of bucket b in start[b]: summed by seal, start[b]
// is the end of bucket b.
func (x *hashIndex) count(h uint64) { x.start[h>>x.shift]++ }

func (x *hashIndex) seal() {
	for b := 1; b < len(x.start)-1; b++ {
		x.start[b] += x.start[b-1]
	}
	x.start[len(x.start)-1] = int32(len(x.nodes))
}

// place puts a record at the end of its bucket's free space; once every
// record is placed, start[b] is where bucket b begins.
func (x *hashIndex) place(nd nodeRec) {
	b := nd.hash >> x.shift
	x.start[b]--
	x.nodes[x.start[b]] = nd
}

// sort orders the records by hash: runs of whole buckets, sorted in
// parallel.
func (x *hashIndex) sort(procs int) error {
	buckets := len(x.start) - 1
	parts := min(buckets, 8*max(procs, 1))
	return parallel(procs, parts, func(i int) error {
		lo, hi := x.start[i*buckets/parts], x.start[(i+1)*buckets/parts]
		slices.SortFunc(x.nodes[lo:hi], func(a, b nodeRec) int { return cmp.Compare(a.hash, b.hash) })
		return nil
	})
}

func (x *hashIndex) lookup(h uint64) (int32, bool) {
	b := h >> x.shift
	for _, nd := range x.nodes[x.start[b]:x.start[b+1]] {
		if nd.hash == h {
			return nd.depth, true
		}
	}
	return -1, false
}

// parallel calls f(i) for every i in [0, n) on min(procs, n) goroutines,
// handing the indices out in ascending order, and waits for them. It
// returns the error of the least index that failed; a panic in f is that
// index's error, so a bug in the post-pass fails the check, not the
// process.
func parallel(procs, n int, f func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(max(procs, 1), n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := 0
			defer func() {
				if p := recover(); p != nil {
					errs[i] = fmt.Errorf("liveness: panic: %v\n%s", p, debug.Stack())
				}
			}()
			for i = int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				errs[i] = f(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
