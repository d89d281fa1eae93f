package main

import (
	"fmt"
	"time"

	"repro/internal/cimp"
	"repro/internal/gcmodel"
	"repro/internal/invariant"
)

// The shadow explorer is the checker's per-layer trace: a sequential BFS
// over the workload's model, written here, that makes the same calls into
// gcmodel, cimp and invariant that explore.Run makes and wraps each in a
// span. It follows explore.Run's counting rules exactly (states at the
// depth cap are visited and checked but not expanded; a filtered
// transition still advances the event index; an ample nomination the
// relation refuses falls back to full expansion), so for the same cap it
// must report explore.Run's states, transitions and depth. That equality
// is the trace's own correctness check.

type shadowOptions struct {
	reduce   bool
	maxDepth int // 0 = uncapped
	// codecEvery > 0 encodes and decodes every n-th new state through
	// the checkpoint codec (the service's checkpoint path).
	codecEvery int
}

type shadowResult struct {
	states, transitions, depth int
	expanded, enabled          int64 // states expanded; successors enumerated
	ampleStates                int64
	deadlocks                  int64
	fpBytes                    int64 // Σ fingerprint length over new states
	violations                 []string
	wall                       time.Duration
	// frontier is the unexpanded last layer (empty on an uncapped run).
	frontier []gcmodel.SysState
	// sample is every 64th expanded state, kept for the follow-up passes
	// when the run is uncapped and leaves no frontier.
	sample []gcmodel.SysState
}

type shadowEntry struct {
	state gcmodel.SysState
	hash  uint64
}

// visitedRec is what explore keeps per state with Trace on.
type visitedRec struct {
	parent uint64
	eidx   int32
}

type shadowSucc struct {
	state gcmodel.SysState
	ev    cimp.Event
	take  bool
}

// Span names: the public function each span is measured around.
const (
	spExpand      = "bench.expand_state"
	spVisited     = "bench.visited_insert"
	spSuccessors  = "gcmodel.SuccessorsConcurrent"
	spFingerprint = "gcmodel.AppendFingerprint"
	spHash        = "gcmodel.Hash64"
	spAmple       = "gcmodel.AmpleChoice"
	spEncode      = "gcmodel.EncodeState"
	spDecode      = "gcmodel.DecodeState"
	spTau         = "cimp.TauSuccessors"
	spView        = "invariant.NewView"
	spBattery     = "invariant.battery"
)

// shadowExplore runs the BFS; tr may be nil for the untraced pass that
// the tracing overhead is measured against.
func shadowExplore(m *gcmodel.Model, checks []invariant.Check, opt shadowOptions, tr *tracer) shadowResult {
	var (
		kExpand  = tr.kind(spExpand)
		kVisited = tr.kind(spVisited)
		kSucc    = tr.kind(spSuccessors)
		kFP      = tr.kind(spFingerprint)
		kHash    = tr.kind(spHash)
		kAmple   = tr.kind(spAmple)
		kEncode  = tr.kind(spEncode)
		kDecode  = tr.kind(spDecode)
		kTau     = tr.kind(spTau)
		kView    = tr.kind(spView)
		kBattery = tr.kind(spBattery)
	)
	var res shadowResult
	start := time.Now()
	seen := map[uint64]visitedRec{}
	var buf, enc []byte
	var succs []shadowSucc

	check := func(st gcmodel.SysState, depth int) {
		tr.push(kView)
		v := invariant.NewView(gcmodel.Global{Model: m, State: st})
		tr.pop()
		tr.push(kBattery)
		for _, c := range checks {
			if err := c.Pred(v); err != nil {
				res.violations = append(res.violations, fmt.Sprintf("%s at depth %d: %v", c.Name, depth, err))
			}
		}
		tr.pop()
	}

	init := m.Initial()
	buf = m.AppendFingerprint(buf[:0], init)
	initHash := gcmodel.Hash64(buf)
	seen[initHash] = visitedRec{eidx: -1}
	res.states = 1
	res.fpBytes = int64(len(buf))
	check(init, 0)
	layer := []shadowEntry{{init, initHash}}

	// visit takes the marked successors of cur: fingerprint, hash, visited
	// insert, and for a new state the invariant battery and the frontier.
	visit := func(cur shadowEntry, nd int, next []shadowEntry) ([]shadowEntry, int) {
		taken := 0
		for eidx := range succs {
			s := &succs[eidx]
			if !s.take {
				continue
			}
			taken++
			res.transitions++
			tr.push(kFP)
			buf = m.AppendFingerprint(buf[:0], s.state)
			tr.pop()
			tr.push(kHash)
			h := gcmodel.Hash64(buf)
			tr.pop()
			tr.push(kVisited)
			_, dup := seen[h]
			if !dup {
				seen[h] = visitedRec{parent: cur.hash, eidx: int32(eidx)}
			}
			tr.pop()
			if dup {
				continue
			}
			res.states++
			res.fpBytes += int64(len(buf))
			check(s.state, nd)
			if opt.codecEvery > 0 && res.states%opt.codecEvery == 0 {
				tr.push(kEncode)
				enc = m.EncodeState(enc[:0], s.state)
				tr.pop()
				tr.push(kDecode)
				_, _, err := m.DecodeState(enc)
				tr.pop()
				if err != nil {
					res.violations = append(res.violations, fmt.Sprintf("DecodeState at depth %d: %v", nd, err))
				}
			}
			next = append(next, shadowEntry{s.state, h})
		}
		return next, taken
	}

	for depth := 0; len(layer) > 0; depth++ {
		res.depth = depth
		if opt.maxDepth > 0 && depth >= opt.maxDepth {
			break
		}
		var next []shadowEntry
		for _, cur := range layer {
			sampled := res.expanded%64 == 0
			if tr != nil {
				tr.keep = sampled
			}
			if sampled {
				res.sample = append(res.sample, cur.state)
			}
			res.expanded++
			tr.push(kExpand)

			var amp gcmodel.Ample
			if opt.reduce {
				tr.push(kAmple)
				amp = m.AmpleChoice(cur.state)
				tr.pop()
			}
			succs = succs[:0]
			tr.push(kSucc)
			m.SuccessorsConcurrent(cur.state, func(ns gcmodel.SysState, ev cimp.Event) {
				succs = append(succs, shadowSucc{state: ns, ev: ev, take: true})
			})
			tr.pop()
			res.enabled += int64(len(succs))
			if amp.OK {
				tr.push(kAmple)
				for i := range succs {
					succs[i].take = amp.Matches(succs[i].ev)
				}
				tr.pop()
			}
			var taken int
			next, taken = visit(cur, depth+1, next)
			if amp.OK {
				if taken > 0 {
					res.ampleStates++
				} else {
					for i := range succs {
						succs[i].take = true
					}
					next, _ = visit(cur, depth+1, next)
				}
			}
			if len(succs) == 0 {
				res.deadlocks++
			}
			if sampled && tr != nil {
				// The interpreter under SuccessorsConcurrent, on its
				// own: the local steps of the collector and mutators.
				for p := 0; p < m.NProcs()-1; p++ {
					tr.push(kTau)
					cimp.TauSuccessors(cur.state.Procs[p], func(cimp.Config[*gcmodel.Local], string) {})
					tr.pop()
				}
			}
			tr.pop()
		}
		layer = next
	}
	if tr != nil {
		tr.keep = false
	}
	res.wall = time.Since(start)
	res.frontier = make([]gcmodel.SysState, len(layer))
	for i, e := range layer {
		res.frontier[i] = e.state
	}
	return res
}

// successorsAllocs measures what one SuccessorsConcurrent call allocates,
// as a mean over a contiguous pass over states (the capped run's frontier
// or the uncapped run's sample), so the runtime's batched allocation
// counters average out.
func successorsAllocs(m *gcmodel.Model, states []gcmodel.SysState) (allocs, bytes float64) {
	if len(states) == 0 {
		return 0, 0
	}
	n := 0
	yield := func(gcmodel.SysState, cimp.Event) { n++ }
	o0, b0 := allocCounters()
	for _, st := range states {
		m.SuccessorsConcurrent(st, yield)
	}
	o1, b1 := allocCounters()
	return float64(o1-o0) / float64(len(states)), float64(b1-b0) / float64(len(states))
}

// emptySpanCost is the duration a span records around nothing: the part
// of every measured span that is the tracer's own clock reads.
func emptySpanCost() time.Duration {
	tr := newTracer(time.Now(), 0)
	k := tr.kind("calibrate")
	const n = 200000
	for i := 0; i < n; i++ {
		tr.push(k)
		tr.pop()
	}
	return k.total / n
}
