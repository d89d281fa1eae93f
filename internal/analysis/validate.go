package analysis

import (
	"errors"
	"fmt"
	"slices"
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
//   - CheckState fires on every newly visited state. Where
//     gcmodel's AmpleChoice nominates a step, it runs CheckAmple, which
//     executes that step against every other enabled transition.
//
// The maps are built once and only read afterwards; the counters are
// atomic. A single Validator is safe for concurrent use by all checker
// workers.
type Validator struct {
	fp     *Footprint
	m      *gcmodel.Model
	events atomic.Int64
	states atomic.Int64
	ample  atomic.Int64
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

// AmpleChecked returns the number of nominated ample steps CheckAmple
// has executed.
func (v *Validator) AmpleChecked() int64 { return v.ample.Load() }

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

// The reasons CheckAmple gives for refusing a nominated step.
var (
	ErrAmpleNotSingle    = errors.New("ample step does not have exactly one successor")
	ErrAmpleObserved     = errors.New("ample step is a buffered write the battery observes")
	ErrAmpleDisables     = errors.New("ample step disables another step")
	ErrAmpleOrdersDiffer = errors.New("the two orders reach different states")
)

// CheckState runs CheckAmple on the step gcmodel nominates at st, if
// any.
func (v *Validator) CheckState(st cimp.System[*gcmodel.Local]) error {
	v.states.Add(1)
	return v.CheckAmple(st, v.m.AmpleChoice(st))
}

// stepKey names a transition across states: the same process firing
// the same command against the same responder. Transitions that share a
// key (the system's dequeues, one per non-empty buffer; the refs an
// allocation may return) are matched as a multiset.
type stepKey struct {
	proc, peer       cimp.PID
	label, peerLabel string
}

func keyOf(ev cimp.Event) stepKey { return stepKey{ev.Proc, ev.Peer, ev.Label, ev.PeerLabel} }

// CheckAmple executes the ample step amp at st against every other
// transition enabled at st. It fails unless
//
//   - (a) amp has exactly one successor, and it is not a buffered store
//     to an ObservedBuffered class;
//   - (b) amp disables no other step: after it, every key is enabled at
//     least as often as before;
//   - (c) for each other step t that leaves amp enabled, t then amp
//     reaches the same fingerprint as amp then some step keyed like t.
//
// A step t that disables amp is allowed; gcmodel/reduce.go says why
// that is sound.
func (v *Validator) CheckAmple(st cimp.System[*gcmodel.Local], amp gcmodel.Ample) error {
	if !amp.OK {
		return nil
	}
	v.ample.Add(1)
	type step struct {
		ev cimp.Event
		to cimp.System[*gcmodel.Local]
	}
	var amps, others []step
	v.m.Successors(st, func(n cimp.System[*gcmodel.Local], ev cimp.Event) {
		if amp.Matches(ev) {
			amps = append(amps, step{ev, n})
		} else {
			others = append(others, step{ev, n})
		}
	})
	if len(amps) != 1 {
		return fmt.Errorf("%w: %q by p%d has %d", ErrAmpleNotSingle, amp.Label, amp.Proc, len(amps))
	}
	a := amps[0]
	if req, ok := a.ev.Alpha.(gcmodel.Req); ok && v.fp.Kinds[req.Kind].Buffered && ClassOf(req.Loc.Kind)&ObservedBuffered != 0 {
		return fmt.Errorf("%w: %q (%v)", ErrAmpleObserved, amp.Label, req)
	}
	after := map[stepKey][]string{}
	v.m.Successors(a.to, func(n cimp.System[*gcmodel.Local], ev cimp.Event) {
		k := keyOf(ev)
		after[k] = append(after[k], v.m.Fingerprint(n))
	})
	before := map[stepKey]int{}
	for _, t := range others {
		k := keyOf(t.ev)
		if before[k]++; before[k] > len(after[k]) {
			return fmt.Errorf("%w: %q by p%d disables %q by p%d", ErrAmpleDisables, amp.Label, amp.Proc, t.ev.Label, t.ev.Proc)
		}
	}
	var err error
	for _, t := range others {
		v.m.Successors(t.to, func(n cimp.System[*gcmodel.Local], ev cimp.Event) {
			if err == nil && amp.Matches(ev) && !slices.Contains(after[keyOf(t.ev)], v.m.Fingerprint(n)) {
				err = fmt.Errorf("%w: %q by p%d against %q by p%d", ErrAmpleOrdersDiffer, amp.Label, amp.Proc, t.ev.Label, t.ev.Proc)
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}
