package analysis

import (
	"fmt"
	"sync/atomic"

	"repro/internal/cimp"
	"repro/internal/gcmodel"
)

// Validator replays the static declarations against a running
// exploration. Its two hooks are wired into the checker (package
// explore via package core) when effect validation is enabled:
//
//   - CheckEvent fires on every transition the search takes and fails
//     if the observed kind, location class, responder label, τ label,
//     or lock/buffer effect falls outside the declared footprint
//     ("declared-effects").
//   - CheckPOR fires on every newly visited state and fails if the
//     derived POR safe classification (por.go) disagrees with the
//     handwritten gcmodel classification on any pending singleton
//     request ("por-safe-class").
//
// The maps are built once and only read afterwards; the counters are
// atomic. A single Validator is safe for concurrent use by all checker
// workers.
type Validator struct {
	fp     *Footprint
	m      *gcmodel.Model
	events atomic.Int64
	states atomic.Int64
}

// NewValidator extracts the footprint of m's configuration and returns
// a validator for its exploration.
func NewValidator(m *gcmodel.Model) (*Validator, error) {
	fp, err := NewFootprint(m.Cfg)
	if err != nil {
		return nil, err
	}
	return &Validator{fp: fp, m: m}, nil
}

// Footprint returns the extracted footprint backing the validator.
func (v *Validator) Footprint() *Footprint { return v.fp }

// Stats returns the number of transitions and states validated.
func (v *Validator) Stats() (events, states int64) {
	return v.events.Load(), v.states.Load()
}

func sysOf(st cimp.System[*gcmodel.Local]) *gcmodel.SysLocal {
	return st.Procs[len(st.Procs)-1].Data.Sys
}

// CheckEvent validates one taken transition against the declarations.
func (v *Validator) CheckEvent(parent, next cimp.System[*gcmodel.Local], ev cimp.Event) error {
	v.events.Add(1)
	if ev.Tau() {
		pid, ok := v.fp.Locals[ev.Label]
		if !ok {
			return fmt.Errorf("undeclared internal step %q by p%d", ev.Label, ev.Proc)
		}
		if pid != ev.Proc {
			return fmt.Errorf("internal step %q declared for p%d, observed at p%d", ev.Label, pid, ev.Proc)
		}
		return nil
	}

	req, ok := ev.Alpha.(gcmodel.Req)
	if !ok {
		return fmt.Errorf("rendezvous at %q carries %T, not a gcmodel request", ev.Label, ev.Alpha)
	}
	site, ok := v.fp.Sites[ev.Label]
	if !ok {
		return fmt.Errorf("undeclared request site %q (kind %v)", ev.Label, req.Kind)
	}
	if site.PID != ev.Proc || req.P != ev.Proc {
		return fmt.Errorf("site %q declared for p%d, fired by p%d (request names p%d)",
			ev.Label, site.PID, ev.Proc, req.P)
	}
	if site.Kind != req.Kind {
		return fmt.Errorf("site %q declared kind %v, observed %v", ev.Label, site.Kind, req.Kind)
	}
	if want := v.fp.Resp[req.Kind]; ev.PeerLabel != want {
		return fmt.Errorf("kind %v answered by %q, declared responder is %q", req.Kind, ev.PeerLabel, want)
	}
	if kindHasLoc(req.Kind) {
		if cls := ClassOf(req.Loc.Kind); cls&site.Loc == 0 {
			return fmt.Errorf("site %q declared location class %v, observed %v (loc %v)",
				ev.Label, site.Loc, cls, req.Loc)
		}
	}

	// Kind-level semantic facts, checked against the surrounding states.
	ps, ns := sysOf(parent), sysOf(next)
	e := v.fp.Kinds[req.Kind]
	if e.LockGuard && !(ps.Lock == -1 || ps.Lock == req.P) {
		return fmt.Errorf("%v at %q answered while p%d held the lock", req.Kind, ev.Label, ps.Lock)
	}
	if e.FlushGuard && len(ps.Bufs[req.P]) != 0 {
		return fmt.Errorf("%v at %q answered with %d buffered stores", req.Kind, ev.Label, len(ps.Bufs[req.P]))
	}
	if e.AcquiresLock && !(ps.Lock == -1 && ns.Lock == req.P) {
		return fmt.Errorf("%v at %q: lock %d→%d, declared -1→%d", req.Kind, ev.Label, ps.Lock, ns.Lock, req.P)
	}
	if e.ReleasesLock && !(ps.Lock == req.P && ns.Lock == -1) {
		return fmt.Errorf("%v at %q: lock %d→%d, declared %d→-1", req.Kind, ev.Label, ps.Lock, ns.Lock, req.P)
	}
	if req.Kind == gcmodel.RWrite && !v.fp.Cfg.SCMemory {
		pb, nb := ps.Bufs[req.P], ns.Bufs[req.P]
		want := gcmodel.WAct{Loc: req.Loc, Val: req.Val}
		if len(nb) != len(pb)+1 || nb[len(nb)-1] != want {
			return fmt.Errorf("write at %q did not append %v to p%d's buffer (%d→%d entries)",
				ev.Label, want, req.P, len(pb), len(nb))
		}
	}
	return nil
}

// CheckPOR diffs the derived POR safe classification against the
// handwritten one at st. It inspects the same pending requests the
// reduction oracle inspects: each non-system process with a unique
// enabled Request head.
func (v *Validator) CheckPOR(st cimp.System[*gcmodel.Local]) error {
	v.states.Add(1)
	sys := sysOf(st)
	for p := 0; p < len(st.Procs)-1; p++ {
		r, alpha, ok := cimp.SoleRequest(st.Procs[p])
		if !ok {
			continue
		}
		req, ok := alpha.(gcmodel.Req)
		if !ok {
			continue
		}
		hand := v.m.SafeRequest(sys, req)
		derived := v.fp.DeriveSafe(sys, req)
		if hand != derived {
			return fmt.Errorf("POR safe-class disagreement at %q (%v): handwritten=%v derived=%v",
				r.Label(), req, hand, derived)
		}
	}
	return nil
}
