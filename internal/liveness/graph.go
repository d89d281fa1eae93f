package liveness

import (
	"cmp"
	"fmt"
	"math/bits"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/cimp"
	"repro/internal/explore"
	"repro/internal/gcmodel"
)

// graph is the materialized reachable state graph of one bounded model
// instance. The safety checker never stores edges — it only needs the
// BFS frontier — but cycle detection needs the whole graph at once, so
// a Recorder logs every transition explore.Run takes and the graph is
// built from that log: a compressed-sparse-row edge list alongside the
// per-node metadata the fairness check and lasso reconstruction need.
// A node is its 64-bit fingerprint hash plus its (parent, event-index)
// recipe, exactly the representation the safety checker replays traces
// from.
type graph struct {
	m    *gcmodel.Model
	ents entities

	// Per-node arrays, indexed by node id. Ids are assigned by BFS depth,
	// then fingerprint hash, so they do not depend on which worker found
	// a state first.
	hash   []uint64 // fingerprint hash
	bad    []uint32 // property bitmask: bit i ⇔ props[i].Bad holds here
	en     []uint64 // fairness entities enabled here (∪ of the out-edges' taken masks)
	parent []int32  // BFS parent id: the least in-edge from the previous layer (-1 at the root)
	peidx  []int32  // event index that produced this node from parent
	depth  []int32

	// CSR out-edges: node u's edges occupy indices estart[u] ..
	// estart[u+1]-1, in event-index order. The engine expands a state
	// fully or not at all, so a node cut off by MaxDepth, MaxStates or an
	// interruption has no out-edges and no cycle passes through it:
	// capped runs under-approximate, they never fabricate violations.
	estart []int32
	eto    []int32  // target node id
	etaken []uint64 // fairness entities this edge serves
	eeidx  []int32  // event index in the source's successor enumeration
}

// bytes is the payload memory retained by the graph arrays.
func (g *graph) bytes() int64 {
	nodes := int64(len(g.hash)) * (8 + 4 + 8 + 4 + 4 + 4)
	edges := int64(len(g.eto))*(4+8+4) + int64(len(g.estart))*4
	return nodes + edges
}

// outEdges returns the CSR index range of node u's out-edges.
func (g *graph) outEdges(u int32) (int32, int32) {
	return g.estart[u], g.estart[u+1]
}

// Recorder is the liveness analysis as an explore.Visitor: attached to a
// run over the full, unreduced relation from the initial state, it logs
// every visited state and every transition taken, and Result turns the
// log into the state graph and searches it. It never fails the run it
// watches.
type Recorder struct {
	m     *gcmodel.Model
	props []Property
	ents  entities
	// The engine's workers append concurrently; the log is striped by
	// the top bits of the (source) state hash like the visited set.
	// Measured against one mutex around one slice on liveness-tiny-b1 at
	// two workers: 8% faster, and 15 MiB lower at the peak because no
	// single slice regrows to tens of megabytes.
	stripes [logStripes]stripe
}

const (
	logStripes = 64
	logShift   = 64 - 6
)

type stripe struct {
	mu    sync.Mutex
	nodes []nodeRec
	edges []edgeRec
}

type nodeRec struct {
	hash  uint64
	depth int32
	bad   uint32
}

type edgeRec struct {
	from, to uint64
	taken    uint64
	eidx     int32
}

// NewRecorder returns a recorder for the selected progress properties
// of m.
func NewRecorder(m *gcmodel.Model, opt Options) (*Recorder, error) {
	props := opt.Properties
	if props == nil {
		props = All(m)
	}
	if len(props) > maxProperties {
		return nil, fmt.Errorf("liveness: %d properties exceed the %d-property limit", len(props), maxProperties)
	}
	ents := entities{nmut: m.Cfg.NMutators}
	if ents.count() > 64 {
		return nil, fmt.Errorf("liveness: %d mutators exceed the fairness-entity limit", m.Cfg.NMutators)
	}
	return &Recorder{m: m, props: props, ents: ents}, nil
}

// Edge logs one transition with the fairness entities it serves.
func (r *Recorder) Edge(e explore.Edge) error {
	rec := edgeRec{from: e.FromHash, to: e.ToHash, taken: r.takenMask(e.From, e.Ev, e.To), eidx: int32(e.EIdx)}
	s := &r.stripes[e.FromHash>>logShift]
	s.mu.Lock()
	s.edges = append(s.edges, rec)
	s.mu.Unlock()
	return nil
}

// State logs one newly visited state with the properties outstanding
// there.
func (r *Recorder) State(n explore.Node) error {
	gl := gcmodel.Global{Model: r.m, State: n.State}
	rec := nodeRec{hash: n.Hash, depth: int32(n.Depth)}
	for i := range r.props {
		if r.props[i].Bad(gl) {
			rec.bad |= 1 << uint(i)
		}
	}
	s := &r.stripes[n.Hash>>logShift]
	s.mu.Lock()
	s.nodes = append(s.nodes, rec)
	s.mu.Unlock()
	return nil
}

// Checks is false: the recorder only observes.
func (r *Recorder) Checks() bool { return false }

// build turns the log into the graph on procs goroutines, releasing the
// log as it goes. Node ids are ordered by (depth, hash) and a node's
// edges by event index, so the graph — and every verdict and lasso
// derived from it — is the same for every worker count and every procs.
//
// Stripes are keyed by the top bits of the hash, so once each is sorted
// by hash their concatenation is the whole log in hash order. That order
// gives the ids (a stable counting sort over depth) and the index that
// resolves an edge's endpoints. An edge lives in its source's stripe, so
// the degree, enabled mask and CSR slots of a source are written by the
// goroutine that owns its stripe and no other.
func (r *Recorder) build(procs int) (*graph, error) {
	err := parallel(procs, logStripes, func(i int) error {
		slices.SortFunc(r.stripes[i].nodes, func(a, b nodeRec) int { return cmp.Compare(a.hash, b.hash) })
		return nil
	})
	if err != nil {
		return nil, err
	}
	n, nedges := 0, 0
	maxDepth := int32(0)
	for i := range r.stripes {
		n += len(r.stripes[i].nodes)
		nedges += len(r.stripes[i].edges)
		for _, nd := range r.stripes[i].nodes {
			maxDepth = max(maxDepth, nd.depth)
		}
	}
	// next[d] is the id of the next node at depth d met in hash order.
	next := make([]int32, maxDepth+2)
	for i := range r.stripes {
		for _, nd := range r.stripes[i].nodes {
			next[nd.depth+1]++
		}
	}
	for d := 1; d < len(next); d++ {
		next[d] += next[d-1]
	}

	g := &graph{
		m: r.m, ents: r.ents,
		hash:   make([]uint64, n),
		bad:    make([]uint32, n),
		en:     make([]uint64, n),
		parent: make([]int32, n),
		peidx:  make([]int32, n),
		depth:  make([]int32, n),
		estart: make([]int32, n+1),
		eto:    make([]int32, nedges),
		etaken: make([]uint64, nedges),
		eeidx:  make([]int32, nedges),
	}
	x := newHashIndex(n)
	for i := range r.stripes {
		for _, nd := range r.stripes[i].nodes {
			id := next[nd.depth]
			next[nd.depth]++
			g.hash[id], g.bad[id], g.depth[id] = nd.hash, nd.bad, nd.depth
			x.add(nd.hash, id)
		}
		r.stripes[i].nodes = nil
	}
	x.seal()

	// Out-degrees, then their prefix sums.
	err = parallel(procs, logStripes, func(i int) error {
		for _, e := range r.stripes[i].edges {
			u, ok := x.lookup(e.from)
			if !ok || e.from>>logShift != uint64(i) {
				return partialLog(e)
			}
			g.estart[u+1]++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for u := 0; u < n; u++ {
		g.estart[u+1] += g.estart[u]
	}
	for j := range g.eto {
		g.eto[j] = -1
	}
	// An expanded state's edges carry the event indices 0..deg-1, so an
	// edge's slot is its source's base plus its event index.
	err = parallel(procs, logStripes, func(i int) error {
		s := &r.stripes[i]
		for _, e := range s.edges {
			u, _ := x.lookup(e.from) // the degree pass resolved every source
			v, ok := x.lookup(e.to)
			j := g.estart[u] + e.eidx
			if !ok || e.eidx < 0 || j >= g.estart[u+1] || g.eto[j] != -1 {
				return partialLog(e)
			}
			g.eto[j], g.etaken[j], g.eeidx[j] = v, e.taken, e.eidx
			g.en[u] |= e.taken
		}
		s.edges = nil
		return nil
	})
	if err != nil {
		return nil, err
	}

	// BFS parents: the least (u, event index) in-edge from the previous
	// layer, which is the first one an ascending pass over the CSR meets.
	for u := range g.parent {
		g.parent[u], g.peidx[u] = -1, -1
	}
	for u := int32(0); u < int32(n); u++ {
		for j := g.estart[u]; j < g.estart[u+1]; j++ {
			if v := g.eto[j]; g.depth[u]+1 == g.depth[v] && g.parent[v] < 0 {
				g.parent[v], g.peidx[v] = u, g.eeidx[j]
			}
		}
	}
	return g, nil
}

func partialLog(e edgeRec) error {
	return fmt.Errorf("liveness: edge log is not a full expansion (state %016x, event index %d)", e.from, e.eidx)
}

// hashIndex resolves a recorded hash to its node id without a map: the
// (hash, id) pairs in hash order, and for each value of the hash's top
// bits the offset of the first pair carrying it. With ⌈log₂ n⌉ top bits
// a bucket holds about one pair; lookups are exact whatever the spread,
// only their speed depends on it.
type hashIndex struct {
	pairs []hashID
	start []int32 // bucket b is pairs[start[b]:start[b+1]]
	shift uint
}

type hashID struct {
	hash uint64
	id   int32
}

func newHashIndex(n int) *hashIndex {
	b := 0
	if n > 1 {
		b = bits.Len(uint(n - 1))
	}
	return &hashIndex{
		pairs: make([]hashID, 0, n),
		start: make([]int32, 1<<b+1),
		shift: uint(64 - b),
	}
}

// add appends a pair; pairs must come in ascending hash order.
func (x *hashIndex) add(h uint64, id int32) {
	x.pairs = append(x.pairs, hashID{h, id})
	x.start[h>>x.shift+1]++
}

// seal turns the per-bucket counts add left into start offsets.
func (x *hashIndex) seal() {
	for b := 1; b < len(x.start); b++ {
		x.start[b] += x.start[b-1]
	}
}

func (x *hashIndex) lookup(h uint64) (int32, bool) {
	b := h >> x.shift
	for _, p := range x.pairs[x.start[b]:x.start[b+1]] {
		if p.hash == h {
			return p.id, true
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

// takenMask computes the fairness entities served by the transition
// su —ev→ ns:
//
//   - a collector or mutator step serves that process's entity (system
//     responder halves are attributed to the requester: the system is
//     always willing, so fairness obligations belong to the requesting
//     process);
//   - a mutator step that starts from or lands in a state where the
//     mutator holds a polled pending bit (HSP) additionally serves the
//     mutator's handshake-response entity — it advances the handshake
//     protocol (poll, handshake work, done);
//   - the system's internal dequeue step serves the drain entity of
//     the buffer it pops.
func (r *Recorder) takenMask(su gcmodel.SysState, ev cimp.Event, ns gcmodel.SysState) uint64 {
	sysPID := r.m.SysPID()
	if ev.Proc == sysPID {
		if !ev.Tau() {
			// The system never initiates rendezvous; defensive only.
			return 0
		}
		sb := gcmodel.Global{Model: r.m, State: su}.Sys().Bufs
		nb := gcmodel.Global{Model: r.m, State: ns}.Sys().Bufs
		for p := range sb {
			if len(nb[p]) < len(sb[p]) {
				return r.ents.drain(cimp.PID(p))
			}
		}
		return 0
	}
	mask := r.ents.proc(ev.Proc)
	if ev.Proc != gcmodel.GCPID {
		mi := int(ev.Proc) - 1
		srcHSP := (gcmodel.Global{Model: r.m, State: su}).Mut(mi).HSP
		dstHSP := (gcmodel.Global{Model: r.m, State: ns}).Mut(mi).HSP
		if srcHSP || dstHSP {
			mask |= r.ents.hs(mi)
		}
	}
	return mask
}
