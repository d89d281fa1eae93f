package gcrt

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// This file implements the online invariant oracle: a sampled,
// stop-the-world-free evaluation of the model's safety invariants
// (package invariant, §3.2 of the paper) against the live arena. It
// closes the model↔runtime gap: the model checker proves the predicates
// over every state of the abstract machine; the oracle asserts their
// runtime images on the concrete heap while adversarial workloads run.
//
// Checks and their model counterparts:
//
//   - valid_refs / reachable-after-sweep: every object reachable from a
//     mutator's roots is allocated. Evaluated by a bounded walk at an
//     HSValidate handshake — a safe point, so the walking mutator's own
//     roots are stable, and the collector is idle, so no sweep can free
//     an object mid-walk (no false positives from legitimate frees).
//
//   - marked_insertions / marked_deletions: at a Store during marking,
//     the inserted (resp. overwritten) reference must be marked on the
//     heap or pending in the mutator's barrier buffer — the buffer is
//     the runtime image of the model's TSO store buffer, and the
//     disjunction is exactly the paper's obligation over committed
//     memory plus buffered ghost state. With the corresponding barrier
//     ablated, white targets slip through and the check fires.
//
//   - mark_sense: between cycles every allocated object carries the
//     current mark sense f_M (the heap is black at idle; sys_phase_inv's
//     hp_Idle clause). AllocWhite violates it within one cycle.
//
//   - free_list: free slots have clear headers — the sweep never
//     returns a live object to a free list.
//
// The oracle never blocks mutators beyond the handshake service they
// already perform, and all bookkeeping is per-mutator or under a small
// findings lock, so it is safe (and -race-clean) under full
// concurrency.

// Check names reported in findings.
const (
	CheckDanglingRoot     = "valid_refs:dangling_root"
	CheckDanglingEdge     = "valid_refs:dangling_edge"
	CheckMarkedInsertions = "marked_insertions"
	CheckMarkedDeletions  = "marked_deletions"
	CheckMarkSense        = "mark_sense"
	CheckFreeList         = "free_list"
)

// maxRecordedFindings bounds the retained finding details; the per-check
// counters keep counting past it.
const maxRecordedFindings = 128

// maxWalk bounds the number of objects visited per mutator per
// validation walk.
const maxWalk = 512

// OracleOptions configures the online invariant oracle.
type OracleOptions struct {
	// SampleEvery checks every n-th Store for the marked_insertions /
	// marked_deletions obligations (0 picks 4; 1 checks every store).
	SampleEvery int
}

// Finding is one observed invariant violation.
type Finding struct {
	Check   string // one of the Check* names
	Mutator int    // mutator involved, -1 for collector-side scans
	Cycle   int64  // completed collection cycles at detection time
	Detail  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s (mutator %d, cycle %d): %s", f.Check, f.Mutator, f.Cycle, f.Detail)
}

// Oracle accumulates online invariant findings.
type Oracle struct {
	rt  *Runtime      // gcrt:guard immutable
	opt OracleOptions // gcrt:guard immutable

	total  atomic.Int64 // gcrt:guard atomic
	checks atomic.Int64 // gcrt:guard atomic

	mu       sync.Mutex       // gcrt:guard atomic
	findings []Finding        // gcrt:guard by(mu)
	byCheck  map[string]int64 // gcrt:guard by(mu)
}

// EnableOracle attaches an online invariant oracle to the runtime.
// Call before any mutator or collector activity.
func (rt *Runtime) EnableOracle(opt OracleOptions) *Oracle {
	if opt.SampleEvery <= 0 {
		opt.SampleEvery = 4
	}
	o := &Oracle{rt: rt, opt: opt, byCheck: make(map[string]int64)}
	rt.oracle = o
	return o
}

// Oracle returns the attached oracle, or nil.
func (rt *Runtime) Oracle() *Oracle { return rt.oracle }

// report records one finding.
func (o *Oracle) report(check string, mutator int, detail string) {
	o.total.Add(1)
	o.mu.Lock()
	o.byCheck[check]++
	if len(o.findings) < maxRecordedFindings {
		o.findings = append(o.findings, Finding{
			Check:   check,
			Mutator: mutator,
			Cycle:   o.rt.stats.cycles.Load(),
			Detail:  detail,
		})
	}
	o.mu.Unlock()
}

// FindingCount reports the total number of violations observed.
func (o *Oracle) FindingCount() int64 { return o.total.Load() }

// Checks reports how many individual invariant evaluations ran — the
// denominator that makes a zero finding count meaningful.
func (o *Oracle) Checks() int64 { return o.checks.Load() }

// Findings returns the retained finding details (capped; see
// FindingCount for the true total).
func (o *Oracle) Findings() []Finding {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]Finding(nil), o.findings...)
}

// CountByCheck returns per-check violation totals.
func (o *Oracle) CountByCheck() map[string]int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make(map[string]int64, len(o.byCheck))
	for k, v := range o.byCheck {
		out[k] = v
	}
	return out
}

// checkStore evaluates the marked_insertions / marked_deletions
// obligations for one Store. phBefore is the phase observed before the
// barriers ran; re-reading the phase afterwards and requiring both
// observations to be PhMark rules out phase-transition races (the
// collector cannot complete a phase transition — which takes a
// handshake this mutator must serve — between two reads inside one
// Store).
func (o *Oracle) checkStore(m *Mutator, victim, inserted Obj, phBefore Phase) {
	if phBefore != PhMark {
		return
	}
	m.oracleTick++
	if o.opt.SampleEvery > 1 && m.oracleTick%int64(o.opt.SampleEvery) != 0 {
		return
	}
	rt := o.rt
	fM := rt.fM.Load()
	white := func(x Obj) bool {
		if x == NilObj {
			return false
		}
		alloc, flag := rt.arena.header(x)
		return alloc && flag != fM
	}
	badIns := white(inserted) && !m.inBarrierBuf(inserted)
	badDel := white(victim) && !m.inBarrierBuf(victim)
	o.checks.Add(2)
	if !badIns && !badDel {
		return
	}
	if Phase(rt.phase.Load()) != PhMark {
		return // phase moved under us; not a valid observation
	}
	if badIns {
		o.report(CheckMarkedInsertions, m.id,
			fmt.Sprintf("stored unmarked %d during marking with no barrier record", inserted))
	}
	if badDel {
		o.report(CheckMarkedDeletions, m.id,
			fmt.Sprintf("overwrote unmarked %d during marking with no barrier record", victim))
	}
}

// validateMutator runs the valid_refs walk for one mutator at an
// HSValidate safe point: every root must be allocated, and every edge
// reachable from the roots (bounded by maxWalk) must point at an
// allocated object. The collector is idle during the audit round, so no
// sweep runs concurrently and a dangling reference is a genuine loss.
func (o *Oracle) validateMutator(m *Mutator) {
	a := o.rt.arena
	visited := make(map[Obj]bool, maxWalk)
	var stack []Obj
	for i, r := range m.roots {
		o.checks.Add(1)
		if r == NilObj {
			continue
		}
		if !a.Allocated(r) {
			o.report(CheckDanglingRoot, m.id,
				fmt.Sprintf("root slot %d holds freed object %d", i, r))
			continue
		}
		if !visited[r] {
			visited[r] = true
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 && len(visited) < maxWalk {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for f := 0; f < a.NumFields(); f++ {
			c := a.peekField(x, f)
			if c == NilObj || visited[c] {
				continue
			}
			o.checks.Add(1)
			if !a.Allocated(c) {
				o.report(CheckDanglingEdge, m.id,
					fmt.Sprintf("reachable edge %d.%d points at freed object %d", x, f, c))
				continue
			}
			visited[c] = true
			stack = append(stack, c)
		}
	}
}

// Audit runs one oracle round. Call it from the collector goroutine
// between cycles (the collector must be idle): it performs an
// HSValidate handshake so every mutator (or the collector on behalf of
// parked ones) walks its roots, then scans the arena for mark-sense and
// free-list consistency. Returns the number of findings accumulated so
// far.
func (rt *Runtime) Audit() int64 {
	o := rt.oracle
	if o == nil {
		return 0
	}
	if Phase(rt.phase.Load()) != PhIdle {
		panic("gcrt: Audit must run between collection cycles")
	}
	rt.handshake(HSValidate)

	// mark_sense: at idle the heap is black — every allocated object
	// carries f_M. Mutators may allocate concurrently, but idle
	// allocations install f_A, and f_A == f_M at idle in every
	// non-ablated configuration.
	fM := rt.fM.Load()
	a := rt.arena
	o.checks.Add(int64(a.NumSlots()))
	for wi := range a.headers {
		for stale := unmarked(a.headers[wi].Load(), fM); stale != 0; stale &= stale - 1 {
			i := wi*slotsPerWord + bits.TrailingZeros64(stale)/2
			o.report(CheckMarkSense, -1,
				fmt.Sprintf("allocated object %d has stale mark sense at idle (f_M=%v)", i, fM))
		}
	}

	// free_list: free slots must be dead.
	for s := range a.shards {
		sh := &a.shards[s]
		sh.mu.Lock()
		for _, f := range sh.free {
			o.checks.Add(1)
			if a.Allocated(f) {
				o.report(CheckFreeList, -1,
					fmt.Sprintf("free-list slot %d has a live header", f))
			}
		}
		sh.mu.Unlock()
	}
	return o.total.Load()
}
