package analysis

import (
	"fmt"

	"repro/internal/cimp"
	"repro/internal/gcmodel"
	"repro/internal/heap"
)

// Site is the declared footprint of one labeled Request site: which
// process issues it, which kind it is, and which location class its
// request targets (0 for kinds without a location). The class is
// extracted by probing the site's Act closure once against a synthetic
// local state; the label conventions of gcmodel fix each site's kind
// and class statically, and the Validator enforces at every taken
// transition that runtime behavior stays inside the extraction.
type Site struct {
	Label string
	PID   cimp.PID
	Kind  gcmodel.ReqKind
	Loc   LocClass
}

// Footprint is the whole-model effect declaration: the per-site table,
// the internal (τ) step labels, and the per-kind effect and
// response-label tables. It is a pure function of the Config — building
// it does not build or explore the model.
type Footprint struct {
	Cfg gcmodel.Config
	// Sites maps every Request label of the collector and the mutators
	// to its declared footprint.
	Sites map[string]Site
	// Locals maps every LocalOp label (of any process, including the
	// system's dequeue) to the PID it belongs to. Fuse-marked register
	// steps are included although they never appear as events.
	Locals map[string]cimp.PID
	// Kinds and Resp are the declared per-kind tables (effects.go).
	Kinds [gcmodel.NumReqKinds]KindEffect
	Resp  [gcmodel.NumReqKinds]string

	// Program roots, kept for CFG construction (rules.go).
	gcRoot   cimp.Com[*gcmodel.Local]
	mutRoots []cimp.Com[*gcmodel.Local]
	sysRoot  cimp.Com[*gcmodel.Local]
}

// probeLocal builds a synthetic local state for PID p suitable for
// evaluating Act closures and register-only LocalOps: all reference
// registers NilRef, all sets empty. Closures read registers to compute
// locations and values; none of them dereference the (absent) heap.
func probeLocal(p cimp.PID, nmut int) *gcmodel.Local {
	switch {
	case p == gcmodel.GCPID:
		return &gcmodel.Local{Self: p, GC: &gcmodel.GCLocal{
			MarkState: gcmodel.MarkState{MRef: heap.NilRef, GHG: heap.NilRef},
			Src:       heap.NilRef, TmpRef: heap.NilRef, SwRef: heap.NilRef,
		}}
	case int(p) <= nmut:
		return &gcmodel.Local{Self: p, Mut: &gcmodel.MutLocal{
			MarkState: gcmodel.MarkState{MRef: heap.NilRef, GHG: heap.NilRef},
			SSrc:      heap.NilRef, SDst: heap.NilRef, TmpRef: heap.NilRef,
		}}
	default:
		return &gcmodel.Local{Self: p, Sys: &gcmodel.SysLocal{}}
	}
}

// probeAct evaluates a Request site's Act closure against a synthetic
// local state, recovering the request kind and location the site is
// declared to issue.
func probeAct(r *cimp.Request[*gcmodel.Local], probe *gcmodel.Local) (req gcmodel.Req, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("analysis: probing %q panicked: %v", r.L, p)
		}
	}()
	msg := r.Act(probe)
	req, ok := msg.(gcmodel.Req)
	if !ok {
		return req, fmt.Errorf("analysis: request %q sends %T, not gcmodel.Req", r.L, msg)
	}
	return req, nil
}

// NewFootprint extracts the declared effects of a model configuration.
func NewFootprint(cfg gcmodel.Config) (*Footprint, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	fp := &Footprint{
		Cfg:    cfg,
		Sites:  make(map[string]Site),
		Locals: make(map[string]cimp.PID),
		Kinds:  KindEffects(),
		Resp:   RespLabels(),
	}

	fp.gcRoot = cfg.GCProgram()
	for i := 0; i < cfg.NMutators; i++ {
		fp.mutRoots = append(fp.mutRoots, cfg.MutProgram(i))
	}
	fp.sysRoot = cfg.SysProgram()

	var err error
	scan := func(pid cimp.PID, root cimp.Com[*gcmodel.Local]) {
		probe := probeLocal(pid, cfg.NMutators)
		cimp.Walk(root, func(c cimp.Com[*gcmodel.Local]) {
			if err != nil {
				return
			}
			switch n := c.(type) {
			case *cimp.LocalOp[*gcmodel.Local]:
				if _, dup := fp.Locals[n.L]; dup {
					err = fmt.Errorf("analysis: duplicate internal label %q", n.L)
					return
				}
				fp.Locals[n.L] = pid
			case *cimp.Request[*gcmodel.Local]:
				if _, dup := fp.Sites[n.L]; dup {
					err = fmt.Errorf("analysis: duplicate request label %q", n.L)
					return
				}
				req, perr := probeAct(n, probe)
				if perr != nil {
					err = perr
					return
				}
				if int(req.Kind) < 0 || int(req.Kind) >= gcmodel.NumReqKinds {
					err = fmt.Errorf("analysis: request %q has unknown kind %d", n.L, int(req.Kind))
					return
				}
				s := Site{Label: n.L, PID: pid, Kind: req.Kind}
				if kindHasLoc(req.Kind) {
					s.Loc = ClassOf(req.Loc.Kind)
					if s.Loc == 0 {
						err = fmt.Errorf("analysis: request %q targets unknown location kind %d",
							n.L, int(req.Loc.Kind))
						return
					}
				}
				fp.Sites[n.L] = s
			}
		})
	}
	scan(gcmodel.GCPID, fp.gcRoot)
	for i, root := range fp.mutRoots {
		scan(gcmodel.MutPID(i), root)
	}
	if err != nil {
		return nil, err
	}

	// The system program: its LocalOps (the dequeue) join the τ table,
	// and its Response labels must be exactly the declared ones.
	sysPID := cimp.PID(cfg.NMutators + 1)
	responses := make(map[string]bool)
	cimp.Walk(fp.sysRoot, func(c cimp.Com[*gcmodel.Local]) {
		switch n := c.(type) {
		case *cimp.LocalOp[*gcmodel.Local]:
			fp.Locals[n.L] = sysPID
		case *cimp.Response[*gcmodel.Local]:
			responses[n.L] = true
		}
	})
	for k := 0; k < gcmodel.NumReqKinds; k++ {
		if !responses[fp.Resp[k]] {
			return nil, fmt.Errorf("analysis: system program has no response %q for kind %v",
				fp.Resp[k], gcmodel.ReqKind(k))
		}
		delete(responses, fp.Resp[k])
	}
	if len(responses) != 0 {
		for l := range responses {
			return nil, fmt.Errorf("analysis: undeclared system response %q", l)
		}
	}
	return fp, nil
}
