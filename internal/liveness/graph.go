package liveness

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

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

// build turns the log into the graph, releasing the log as it goes. Node
// ids are ordered by (depth, hash) and a node's edges by event index, so
// the graph — and every verdict and lasso derived from it — is the same
// for every worker count.
func (r *Recorder) build() (*graph, error) {
	n, nedges := 0, 0
	for i := range r.stripes {
		n += len(r.stripes[i].nodes)
		nedges += len(r.stripes[i].edges)
	}
	nodes := make([]nodeRec, 0, n)
	for i := range r.stripes {
		nodes = append(nodes, r.stripes[i].nodes...)
		r.stripes[i].nodes = nil
	}
	slices.SortFunc(nodes, func(a, b nodeRec) int {
		if a.depth != b.depth {
			return cmp.Compare(a.depth, b.depth)
		}
		return cmp.Compare(a.hash, b.hash)
	})

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
	ids := make(map[uint64]int32, n)
	for i, nd := range nodes {
		g.hash[i], g.bad[i], g.depth[i] = nd.hash, nd.bad, nd.depth
		g.parent[i], g.peidx[i] = -1, -1
		ids[nd.hash] = int32(i)
	}
	nodes = nil

	// Out-degrees, then their prefix sums.
	for i := range r.stripes {
		for _, e := range r.stripes[i].edges {
			g.estart[ids[e.from]+1]++
		}
	}
	for u := 0; u < n; u++ {
		g.estart[u+1] += g.estart[u]
	}
	for j := range g.eto {
		g.eto[j] = -1
	}
	// An expanded state's edges carry the event indices 0..deg-1, so an
	// edge's slot is its source's base plus its event index.
	for i := range r.stripes {
		s := &r.stripes[i]
		for _, e := range s.edges {
			u, known := ids[e.from]
			v, ok := ids[e.to]
			j := g.estart[u] + e.eidx
			if !known || !ok || j >= g.estart[u+1] || g.eto[j] != -1 {
				return nil, fmt.Errorf("liveness: edge log is not a full expansion (state %016x, event index %d)", e.from, e.eidx)
			}
			g.eto[j], g.etaken[j], g.eeidx[j] = v, e.taken, e.eidx
			g.en[u] |= e.taken
			if g.depth[u]+1 == g.depth[v] {
				if p := g.parent[v]; p < 0 || u < p || (u == p && e.eidx < g.peidx[v]) {
					g.parent[v], g.peidx[v] = u, e.eidx
				}
			}
		}
		s.edges = nil
	}
	return g, nil
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
