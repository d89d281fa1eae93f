package liveness

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/cimp"
	"repro/internal/explore"
	"repro/internal/gcmodel"
)

// Recorder is the liveness analysis as an explore.Visitor: attached to a
// run over the full, unreduced relation from the initial state, it logs
// every visited state and every transition taken, and Result turns the
// log into the state graph and searches it. It never fails the run it
// watches.
type Recorder struct {
	m     *gcmodel.Model
	props []Property
	ents  entities
	// logs[w] is worker w's log. Only worker w appends to it and its calls
	// are sequential (the explore.Visitor contract), so a record is
	// appended without a lock. The slice is replaced, copied on write
	// under grow, the first time a worker shows up.
	logs atomic.Pointer[[]*workerLog]
	grow sync.Mutex
}

// workerLog is what one worker recorded: a node record per state it
// inserted, and per state it expanded one run — the source's hash and
// out-degree once, then per edge the successor's hash and the code of
// the fairness entities the step serves (an index into entities.codes).
// An edge's event index is its position in the run: the engine hands a
// source's edges to one worker in enumeration order.
type workerLog struct {
	nodes chunks[nodeRec]
	runs  chunks[runRec]
	to    chunks[uint64]
	code  chunks[uint8]
	// broken describes the first edge that neither opened a run (event
	// index 0) nor continued the open one; nothing is logged after it.
	broken error
	_      [64]byte // keep the next log's counters off this one's last line
}

// nodeRec is one node record. The build sorts the records by hash and
// then reuses them as its hash index, writing each node's id over its
// depth.
type nodeRec struct {
	hash  uint64
	depth int32 // the BFS depth, and the node's id once the build numbered it
	bad   uint32
}

// runRec is the head of one run: a source and its out-degree. The build
// resolves the source's id into id.
type runRec struct {
	from uint64
	deg  int32
	id   int32
}

// Log record sizes, for Result.LogBytes.
const (
	nodeRecBytes = 16
	runRecBytes  = 16
	edgeBytes    = 8 + 1
)

// chunkLen is the number of records in one chunk of a log stream.
const chunkLen = 1 << 13

// chunks is an append-only sequence held in chunks of chunkLen, so that
// growing it never copies what it holds and a reader can release it
// chunk by chunk.
type chunks[T any] struct {
	cs [][]T
	n  int
}

func (c *chunks[T]) add(v T) {
	if k := len(c.cs); k == 0 || len(c.cs[k-1]) == chunkLen {
		c.cs = append(c.cs, make([]T, 0, chunkLen))
	}
	k := len(c.cs) - 1
	c.cs[k] = append(c.cs[k], v)
	c.n++
}

// last returns the most recently added element.
func (c *chunks[T]) last() *T {
	cs := c.cs[len(c.cs)-1]
	return &cs[len(cs)-1]
}

// take returns element i, releasing the chunk before i's when i opens a
// chunk: a reader calls it with ascending i.
func (c *chunks[T]) take(i int) T {
	k := i / chunkLen
	if i%chunkLen == 0 && k > 0 {
		c.cs[k-1] = nil
	}
	return c.cs[k][i%chunkLen]
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
	r.log(e.Worker).edge(e.FromHash, e.EIdx, e.ToHash, r.takenCode(e.From, e.Ev, e.To))
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
	r.log(n.Worker).nodes.add(rec)
	return nil
}

// Checks is false: the recorder only observes.
func (r *Recorder) Checks() bool { return false }

// log returns worker w's log, creating it on the worker's first record.
func (r *Recorder) log(w int) *workerLog {
	if ls := r.logs.Load(); ls != nil && w < len(*ls) && (*ls)[w] != nil {
		return (*ls)[w]
	}
	r.grow.Lock()
	defer r.grow.Unlock()
	var ls []*workerLog
	if p := r.logs.Load(); p != nil {
		ls = *p
	}
	if w < len(ls) && ls[w] != nil {
		return ls[w]
	}
	// Other workers may be reading the published slice: write a copy.
	ls = slices.Clone(ls)
	if w >= len(ls) {
		ls = append(ls, make([]*workerLog, w+1-len(ls))...)
	}
	ls[w] = &workerLog{}
	r.logs.Store(&ls)
	return ls[w]
}

// workerLogs returns the logs the run left, in worker order (nil where a
// worker recorded nothing).
func (r *Recorder) workerLogs() []*workerLog {
	if p := r.logs.Load(); p != nil {
		return *p
	}
	return nil
}

// logBytes is the payload the log's records hold: what the build starts
// from. Chunk slack (less than one chunk per stream per worker) is left
// out, so the figure does not depend on the worker count.
func (r *Recorder) logBytes() int64 {
	var b int64
	for _, l := range r.workerLogs() {
		if l != nil {
			b += int64(l.nodes.n)*nodeRecBytes + int64(l.runs.n)*runRecBytes + int64(l.to.n)*edgeBytes
		}
	}
	return b
}

// edge appends the transition from —eidx→ to serving the entities of
// code: event index 0 opens from's run, and any other index must be the
// next one of the open run.
func (l *workerLog) edge(from uint64, eidx int, to uint64, code uint8) {
	if l.broken != nil {
		return
	}
	switch {
	case eidx == 0:
		l.runs.add(runRec{from: from, deg: 1})
	case l.runs.n > 0 && l.runs.last().from == from && int(l.runs.last().deg) == eidx:
		l.runs.last().deg++
	default:
		l.broken = partialLog(from, eidx)
		return
	}
	l.to.add(to)
	l.code.add(code)
}

func partialLog(from uint64, eidx int) error {
	return fmt.Errorf("liveness: edge log is not a full expansion (state %016x, event index %d)", from, eidx)
}

// takenCode computes the fairness entities served by the transition
// su —ev→ ns, as their code:
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
func (r *Recorder) takenCode(su gcmodel.SysState, ev cimp.Event, ns gcmodel.SysState) uint8 {
	sysPID := r.m.SysPID()
	if ev.Proc == sysPID {
		if !ev.Tau() {
			// The system never initiates rendezvous; defensive only.
			return noneCode
		}
		sb := gcmodel.Global{Model: r.m, State: su}.Sys().Bufs
		nb := gcmodel.Global{Model: r.m, State: ns}.Sys().Bufs
		for p := range sb {
			if len(nb[p]) < len(sb[p]) {
				return r.ents.drainCode(cimp.PID(p))
			}
		}
		return noneCode
	}
	if ev.Proc != gcmodel.GCPID {
		mi := int(ev.Proc) - 1
		srcHSP := (gcmodel.Global{Model: r.m, State: su}).Mut(mi).HSP
		dstHSP := (gcmodel.Global{Model: r.m, State: ns}).Mut(mi).HSP
		if srcHSP || dstHSP {
			return r.ents.hsCode(mi)
		}
	}
	return r.ents.procCode(ev.Proc)
}
