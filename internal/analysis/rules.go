package analysis

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cimp"
	"repro/internal/gcmodel"
	"repro/internal/heap"
)

// This file implements the model-level lint rules. A naive whole-program
// robustness check is useless for the GC model: the collector is
// deliberately non-robust (tolerating relaxed behavior is the paper's
// point), so every configuration has critical cycles. Pass/fail instead
// comes from named placement rules that encode the paper's protocol
// obligations — each one flags exactly the ablation (the named drop
// list of gcmodel.AblationDrop) that removes it:
//
//	deletion-barrier   every store path marks the overwritten reference
//	                   (flags no_deletion_barrier)
//	insertion-barrier  every store path marks the stored reference
//	                   (flags no_insertion_barrier and the §4 gated variant)
//	mark-cas           mark-flag stores happen under the TSO lock
//	                   (flags unlocked_mark)
//	handshake-fence    buffers are empty at handshake signal/completion
//	                   (flags no_hs_fence)
//	phase-ladder       a full handshake round separates consecutive
//	                   phase-protocol writes (flags elide_hs1–3; elide_hs4
//	                   is exempt by design, matching experiment E12)
//
// Whole-program relaxed store→load pairs and per-fence coverage are
// reported informationally (ModelReport.Relaxed / FenceCoverage).
//
// Out of scope statically: AllocWhite (a value-level ablation — the
// allocation color is data, not placement), SCMemory (strengthens the
// model), and the liveness ablations mute_handshake/no_dequeue (package
// liveness finds those dynamically).

// Finding is one rule violation.
type Finding struct {
	Rule   string
	PID    cimp.PID
	Label  string // anchoring site label
	Detail string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: p%d at %q: %s", f.Rule, f.PID, f.Label, f.Detail)
}

// ModelPair is an informational relaxed store→load site pair: the store
// can still be buffered when the load executes, and the two may target
// different addresses.
type ModelPair struct {
	PID         cimp.PID
	Store, Load string
}

// FenceCover reports how many relaxed pairs a fence site suppresses:
// the number of additional pairs that appear if it stops flushing.
type FenceCover struct {
	PID    cimp.PID
	Label  string
	Covers int
}

// ModelReport is the static lint result for one model configuration.
type ModelReport struct {
	Cfg      gcmodel.Config
	Findings []Finding
	// Relaxed and FenceCoverage are informational (see file comment).
	Relaxed       []ModelPair
	FenceCoverage []FenceCover
}

// Clean reports whether no rule fired.
func (r *ModelReport) Clean() bool { return len(r.Findings) == 0 }

// markBegin describes a probed mark-operation entry node: whether the
// mark is a deletion barrier and which register it marks.
type markBegin struct {
	node      int
	del       bool
	targetOld bool // marks the overwritten value (TmpRef)
	targetNew bool // marks the stored value (SDst)
}

// Sentinel references planted in the probe state so the probed mark
// entry reveals which register its target closure reads. Distinct and
// within the reference universe bound; never dereferenced.
const (
	sentOld heap.Ref = 62 // TmpRef: the overwritten value
	sentNew heap.Ref = 61 // SDst: the stored value
)

// probeMarkBegins runs every LocalOp node of g against a sentinel-laden
// probe state and collects the mark-operation entry nodes (the ghost
// InMark bit identifies them; cf. mark.go's _begin steps).
func probeMarkBegins(g *CFG, nmut int) []markBegin {
	var out []markBegin
	for id, n := range g.Nodes {
		op, ok := n.Com.(*cimp.LocalOp[*gcmodel.Local])
		if !ok {
			continue
		}
		probe := probeLocal(g.PID, nmut)
		if probe.Mut != nil {
			probe.Mut.TmpRef, probe.Mut.SDst = sentOld, sentNew
		} else if probe.GC != nil {
			probe.GC.TmpRef = sentOld
		}
		res := runOpSafely(op, probe)
		if len(res) != 1 {
			continue
		}
		r := res[0]
		var in, del bool
		var target heap.Ref
		switch {
		case r.Mut != nil:
			in, del, target = r.Mut.InMark, r.Mut.InMarkDel, r.Mut.MRef
		case r.GC != nil:
			in, del, target = r.GC.InMark, false, r.GC.MRef
		}
		if !in {
			continue
		}
		out = append(out, markBegin{
			node:      id,
			del:       del,
			targetOld: target == sentOld,
			targetNew: target == sentNew,
		})
	}
	return out
}

func runOpSafely(op *cimp.LocalOp[*gcmodel.Local], probe *gcmodel.Local) (res []*gcmodel.Local) {
	defer func() {
		if recover() != nil {
			res = nil
		}
	}()
	return op.F(probe)
}

// LintModel statically lints a model configuration: it extracts the
// footprint, builds the collector and mutator CFGs, and evaluates the
// placement rules. It never builds or explores the model.
func LintModel(cfg gcmodel.Config) (*ModelReport, error) {
	fp, err := NewFootprint(cfg)
	if err != nil {
		return nil, err
	}
	return LintFootprint(fp)
}

// LintFootprint is LintModel over an already-extracted footprint.
func LintFootprint(fp *Footprint) (*ModelReport, error) {
	rep := &ModelReport{Cfg: fp.Cfg}
	nmut := fp.Cfg.NMutators

	gcCFG, err := buildCFG(gcmodel.GCPID, fp.gcRoot, &fp.Cfg, probeLocal(gcmodel.GCPID, nmut))
	if err != nil {
		return nil, err
	}
	var mutCFGs []*CFG
	for i, root := range fp.mutRoots {
		pid := gcmodel.MutPID(i)
		g, err := buildCFG(pid, root, &fp.Cfg, probeLocal(pid, nmut))
		if err != nil {
			return nil, err
		}
		mutCFGs = append(mutCFGs, g)
	}

	for _, g := range mutCFGs {
		rep.lintBarriers(g, nmut)
	}
	for _, g := range append([]*CFG{gcCFG}, mutCFGs...) {
		rep.lintMarkCas(g)
		rep.lintHandshakeFences(g)
		rep.collectRelaxed(g)
	}
	if err := rep.lintPhaseLadder(gcCFG); err != nil {
		return nil, err
	}
	return rep, nil
}

// lintBarriers checks the deletion- and insertion-barrier placement on
// one mutator: every control path from the store's old-value load to a
// heap field write must pass a deletion-mark entry targeting the
// overwritten value, and an (unconditional) insertion-mark entry
// targeting the stored value.
func (rep *ModelReport) lintBarriers(g *CFG, nmut int) {
	loadOld := -1
	for id, n := range g.Nodes {
		if strings.HasSuffix(n.Label, "_store_load_old") {
			loadOld = id
			break
		}
	}
	if loadOld < 0 {
		return // store operation disabled: nothing to place barriers on
	}
	begins := probeMarkBegins(g, nmut)
	inSet := func(pred func(markBegin) bool) func(int) bool {
		set := make(map[int]bool)
		for _, b := range begins {
			if pred(b) {
				set[b.node] = true
			}
		}
		return func(n int) bool { return set[n] }
	}
	isDel := inSet(func(b markBegin) bool { return b.del && b.targetOld })
	isIns := inSet(func(b markBegin) bool { return !b.del && b.targetNew })

	for id, n := range g.Nodes {
		if n.Req == nil || n.Req.Kind != gcmodel.RWrite || ClassOf(n.Req.Loc.Kind) != ClassField {
			continue
		}
		if !g.EveryPathPasses(loadOld, id, isDel) {
			rep.add(Finding{Rule: "deletion-barrier", PID: g.PID, Label: n.Label,
				Detail: "a store path reaches the heap write without a deletion mark of the overwritten reference"})
		}
		if !g.EveryPathPasses(loadOld, id, isIns) {
			rep.add(Finding{Rule: "insertion-barrier", PID: g.PID, Label: n.Label,
				Detail: "a store path reaches the heap write without an insertion mark of the stored reference"})
		}
	}
}

// lintMarkCas checks that every mark-flag store executes with the TSO
// lock definitely held (the CAS of Figure 5).
func (rep *ModelReport) lintMarkCas(g *CFG) {
	lock := g.LockHeldAt()
	for id, n := range g.Nodes {
		if n.Req == nil || n.Req.Kind != gcmodel.RWrite || ClassOf(n.Req.Loc.Kind) != ClassMark {
			continue
		}
		if lock[id] != LockHeld {
			rep.add(Finding{Rule: "mark-cas", PID: g.PID, Label: n.Label,
				Detail: fmt.Sprintf("mark-flag store with lock state %v: the CAS is not atomic", lock[id])})
		}
	}
}

// lintHandshakeFences checks that the requester's store buffer is
// provably empty at every handshake signal (collector) and handshake
// completion (mutator): otherwise a handshake can complete while
// control or barrier stores are still in flight.
func (rep *ModelReport) lintHandshakeFences(g *CFG) {
	pend := g.PendingAt(nil)
	for id, n := range g.Nodes {
		if n.Req == nil {
			continue
		}
		if n.Req.Kind != gcmodel.RHsSignal && n.Req.Kind != gcmodel.RHsDone {
			continue
		}
		if pend[id].Empty() {
			continue
		}
		var labels []string
		for _, w := range pend[id].Members() {
			labels = append(labels, g.Nodes[w].Label)
		}
		rep.add(Finding{Rule: "handshake-fence", PID: g.PID, Label: n.Label,
			Detail: fmt.Sprintf("stores may still be buffered: %s", strings.Join(labels, ", "))})
	}
}

// lintPhaseLadder checks the collector's phase protocol: each
// consecutive pair of control writes in the ladder
//
//	phase←Idle  →  f_M flip  →  phase←Init  →  phase←Mark
//
// must be separated by a completed handshake round (an RHsWaitAll) on
// every control path. The Mark→Sweep and Sweep→Idle steps need no
// round (the paper's protocol has none there; elision of round 4 is
// verified safe dynamically, experiment E12).
func (rep *ModelReport) lintPhaseLadder(g *CFG) error {
	phaseWrite := func(ph gcmodel.Phase) int {
		for id, n := range g.Nodes {
			if n.Req != nil && n.Req.Kind == gcmodel.RWrite &&
				ClassOf(n.Req.Loc.Kind) == ClassPhase && n.Req.Val == gcmodel.PhaseVal(ph) {
				return id
			}
		}
		return -1
	}
	classWrite := func(cls LocClass) int {
		for id, n := range g.Nodes {
			if n.Req != nil && n.Req.Kind == gcmodel.RWrite && ClassOf(n.Req.Loc.Kind) == cls {
				return id
			}
		}
		return -1
	}
	isWaitAll := func(n int) bool {
		r := g.Nodes[n].Req
		return r != nil && r.Kind == gcmodel.RHsWaitAll
	}

	idleW, fmW, initW, markW := phaseWrite(gcmodel.PhIdle), classWrite(ClassFM),
		phaseWrite(gcmodel.PhInit), phaseWrite(gcmodel.PhMark)
	for name, id := range map[string]int{
		"phase←Idle": idleW, "f_M": fmW, "phase←Init": initW, "phase←Mark": markW,
	} {
		if id < 0 {
			return fmt.Errorf("analysis: collector has no %s write", name)
		}
	}
	for _, step := range []struct {
		from, to int
		desc     string
	}{
		{idleW, fmW, "phase←Idle and the f_M flip (round 1)"},
		{fmW, initW, "the f_M flip and phase←Init (round 2)"},
		{initW, markW, "phase←Init and phase←Mark (round 3)"},
	} {
		if !g.EveryPathPasses(step.from, step.to, isWaitAll) {
			rep.add(Finding{Rule: "phase-ladder", PID: g.PID, Label: g.Nodes[step.to].Label,
				Detail: fmt.Sprintf("no completed handshake round separates %s", step.desc)})
		}
	}
	return nil
}

// collectRelaxed records the informational relaxed store→load pairs of
// one process and the per-fence coverage counts.
func (rep *ModelReport) collectRelaxed(g *CFG) {
	pairs := func(pend []BitSet) []ModelPair {
		var out []ModelPair
		for id, n := range g.Nodes {
			if n.Req == nil || n.Req.Kind != gcmodel.RRead {
				continue
			}
			rc := ClassOf(n.Req.Loc.Kind)
			for _, w := range pend[id].Members() {
				wc := ClassOf(g.Nodes[w].Req.Loc.Kind)
				if wc == rc && wc.SingleAddress() {
					continue // same single address: forwarded, ordered
				}
				out = append(out, ModelPair{PID: g.PID, Store: g.Nodes[w].Label, Load: n.Label})
			}
		}
		return out
	}
	base := pairs(g.PendingAt(nil))
	rep.Relaxed = append(rep.Relaxed, base...)

	for id, n := range g.Nodes {
		if n.Req == nil || n.Req.Kind != gcmodel.RMFence {
			continue
		}
		without := pairs(g.PendingAt(map[int]bool{id: true}))
		if d := len(without) - len(base); d > 0 {
			rep.FenceCoverage = append(rep.FenceCoverage, FenceCover{PID: g.PID, Label: n.Label, Covers: d})
		}
	}
	sort.Slice(rep.FenceCoverage, func(i, j int) bool {
		a, b := rep.FenceCoverage[i], rep.FenceCoverage[j]
		if a.PID != b.PID {
			return a.PID < b.PID
		}
		return a.Label < b.Label
	})
}

func (rep *ModelReport) add(f Finding) { rep.Findings = append(rep.Findings, f) }
