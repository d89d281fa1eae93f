// Package liveness is the progress half of the checker: a fair-cycle
// detector over the reachable state graph of the GC model. Where
// package explore re-establishes the paper's safety theorem
// (□(reachable r → valid_ref r)) by visiting every state, this package
// checks the progress obligations the paper states informally but
// leaves unproven (§6): every initiated handshake is eventually
// acknowledged by all mutators, the collector infinitely often reaches
// the sweep phase, and every buffered TSO store is eventually flushed
// to memory.
//
// # Properties as acceptance conditions
//
// Each Property carries a predicate Bad over global states meaning "the
// progress obligation is outstanding here": a handshake-pending bit is
// set, a store buffer is non-empty, the collector is not at sweep. A
// property is violated exactly when the model has an infinite fair
// execution on which Bad holds forever — in a finite graph, a reachable
// cycle every state of which satisfies Bad. Both shapes of the paper's
// obligations compile to this persistence form: a response property
// □(pending → ◇acked) fails on a cycle that stays pending, and a
// recurrence property □◇sweep fails on a cycle that avoids sweep.
//
// # Weak fairness
//
// Not every cycle is a real counterexample: the interleaving semantics
// contains scheduler-starvation loops (a mutator polling an empty
// mailbox forever while the runnable collector never gets a turn) and
// buffer-procrastination loops (a non-empty store buffer whose commit
// transition is enabled at every state but never scheduled). These are
// artifacts of the demonic scheduler, not bugs in the collector, so the
// detector only reports cycles that are weakly fair with respect to a
// set of fairness entities:
//
//   - one entity per process (collector and each mutator): a process
//     with an enabled transition at every state of the cycle must take
//     a step somewhere on the cycle;
//   - one entity per store buffer: if the buffer's oldest write is
//     committable (buffer non-empty, TSO lock not held by another
//     process) at every state of the cycle, a commit of that buffer
//     must occur on the cycle — hardware drains store buffers
//     spontaneously;
//   - one entity per mutator for handshake response: if mutator m has a
//     pending handshake and an enabled handshake-advancing step at
//     every state of the cycle, it must advance the handshake on the
//     cycle. This encodes the paper's §3.1 assumption that mutators
//     poll regularly; without it, a mutator spinning on MFENCE forever
//     would be a (weakly fair per process) way to starve every
//     handshake, drowning real violations in scheduler noise.
//
// A cycle is reported only if, for every entity, the entity either
// takes a step on the cycle or is disabled at some state of the cycle.
//
// # Algorithm
//
// The analysis does not explore: a Recorder rides on explore.Run as a
// Visitor and logs, per worker and without a lock, every visited state
// (64-bit fingerprint hash, depth, outstanding properties) and every
// transition taken (the successor's hash and a one-byte code of the
// fairness entities it serves, its event index implicit in the order the
// engine hands over a state's successors). From the log it builds the
// reachable graph once, on every core, then runs Tarjan's SCC algorithm
// on the subgraph induced by each property's Bad states, one property
// per core. A strongly connected component admits a weakly fair cycle iff
// every entity enabled at all of its states is taken on some internal
// edge; from the first such component a concrete lasso (stem + cycle)
// is stitched together from shortest paths and replayed through the
// transition relation, so a liveness counterexample is a step-by-step
// run exactly like a safety one.
//
// The recorded run must walk the full, unreduced transition relation
// from the initial state: the partial-order reduction of package
// explore preserves reachability verdicts but not cycles or enabledness
// (see DESIGN.md "Liveness architecture"). A safety pass of that shape
// carries the recorder itself (package core attaches it); Check runs
// the engine once with an empty battery for the cases where it cannot.
package liveness

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/cimp"
	"repro/internal/explore"
	"repro/internal/gcmodel"
)

// Property is one progress obligation, expressed as a persistence
// acceptance condition: the property is violated iff some weakly fair
// cycle satisfies Bad at every state.
type Property struct {
	// Name identifies the property in verdicts and on the gcmc command
	// line (e.g. "hs-ack-m0").
	Name string
	// Desc is the one-line human reading of the obligation.
	Desc string
	// Bad reports whether the obligation is outstanding at this state.
	Bad func(g gcmodel.Global) bool
}

// All returns the progress properties of a model instance, derived from
// the paper's informal liveness claims:
//
//   - hs-ack-m<i>: every handshake signaled to mutator i is eventually
//     acknowledged (the pending bit eventually clears);
//   - gc-sweep: the collector infinitely often reaches the sweep phase,
//     so garbage is reclaimed infinitely often;
//   - buf-drain-gc, buf-drain-m<i>: every write buffered by the process
//     is eventually committed to shared memory.
func All(m *gcmodel.Model) []Property {
	n := m.Cfg.NMutators
	props := make([]Property, 0, 2*n+2)
	for i := 0; i < n; i++ {
		i := i
		props = append(props, Property{
			Name: fmt.Sprintf("hs-ack-m%d", i),
			Desc: fmt.Sprintf("every handshake signaled to mutator %d is eventually acknowledged", i),
			Bad:  func(g gcmodel.Global) bool { return g.Sys().Pending[i] },
		})
	}
	props = append(props, Property{
		Name: "gc-sweep",
		Desc: "the collector infinitely often completes a mark phase and reaches sweep",
		Bad:  func(g gcmodel.Global) bool { return g.GC().Phase != gcmodel.PhSweep },
	})
	props = append(props, Property{
		Name: "buf-drain-gc",
		Desc: "every store buffered by the collector is eventually flushed",
		Bad:  func(g gcmodel.Global) bool { return len(g.Buf(gcmodel.GCPID)) > 0 },
	})
	for i := 0; i < n; i++ {
		i := i
		props = append(props, Property{
			Name: fmt.Sprintf("buf-drain-m%d", i),
			Desc: fmt.Sprintf("every store buffered by mutator %d is eventually flushed", i),
			Bad:  func(g gcmodel.Global) bool { return len(g.Buf(gcmodel.MutPID(i))) > 0 },
		})
	}
	return props
}

// ByName resolves a subset of All(m) by property name.
func ByName(m *gcmodel.Model, names []string) ([]Property, error) {
	all := All(m)
	byName := make(map[string]Property, len(all))
	for _, p := range all {
		byName[p.Name] = p
	}
	var props []Property
	for _, n := range names {
		p, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("liveness: unknown property %q (have %v)", n, propertyNames(all))
		}
		props = append(props, p)
	}
	return props, nil
}

func propertyNames(props []Property) []string {
	ns := make([]string, len(props))
	for i, p := range props {
		ns[i] = p.Name
	}
	return ns
}

// Options selects what a liveness check looks for. Bounds, workers,
// progress and cancellation belong to the engine run being recorded.
type Options struct {
	// Properties selects the progress properties to check (nil =
	// All(m)).
	Properties []Property
}

// PropertyResult is the verdict for one property.
type PropertyResult struct {
	// Name and Desc identify the property.
	Name string
	Desc string
	// Holds reports that no weakly fair violating cycle exists in the
	// explored graph (conclusive only when Result.Complete).
	Holds bool
	// Counterexample is the violating lasso, nil when Holds.
	Counterexample *Lasso
}

// Result summarizes a liveness check.
type Result struct {
	// States, Transitions, Depth, Complete and Stopped are those of the
	// recorded run: the graph is exactly what the engine explored. A
	// capped or interrupted graph under-approximates the cycle
	// structure, so violations found are real but a clean verdict is
	// conclusive only when Complete.
	States      int
	Transitions int
	Depth       int
	Complete    bool
	Stopped     explore.StopReason
	// GraphBytes is the payload memory retained by the state graph
	// (node and edge arrays), and LogBytes that of the log it was built
	// from: the records of every state, expansion and transition.
	GraphBytes int64
	LogBytes   int64
	// Properties holds one verdict per checked property, in the order
	// they were given.
	Properties []PropertyResult
	// Elapsed is the wall-clock time the liveness pass added to the run:
	// the graph build and the cycle search, plus the exploration when
	// Check ran its own.
	Elapsed time.Duration
}

// Holds reports whether every checked property held.
func (r Result) Holds() bool {
	for _, p := range r.Properties {
		if !p.Holds {
			return false
		}
	}
	return true
}

// Violations returns the properties that failed.
func (r Result) Violations() []PropertyResult {
	var vs []PropertyResult
	for _, p := range r.Properties {
		if !p.Holds {
			vs = append(vs, p)
		}
	}
	return vs
}

// Check records one engine run of its own over the full, unreduced
// relation from the initial state, with an empty invariant battery, and
// searches the recorded graph. eopt supplies the run's bounds, workers,
// progress, cancellation and memory budget; whatever in it would change
// the relation walked or belongs to a safety pass (reduction, resume,
// checkpoints, traces, visitors) is ignored. Without a checkpoint log the
// spill rung cannot arm, so this run stops at the memory budget instead
// of spilling.
func Check(m *gcmodel.Model, opt Options, eopt explore.Options) (Result, error) {
	rec, err := NewRecorder(m, opt)
	if err != nil {
		return Result{}, err
	}
	eopt.Reduce, eopt.Resume = false, nil
	eopt.Checkpoint = explore.CheckpointOptions{}
	eopt.Trace, eopt.HashOnly = false, true
	eopt.Visitors = []explore.Visitor{rec}
	run := explore.Run(m, nil, eopt)
	res, err := rec.Result(run)
	res.Elapsed += run.Elapsed
	return res, err
}

// Result builds the state graph from the log of the finished run and
// searches it, per property, for a weakly fair cycle on which the
// property's obligation is outstanding at every state. Counterexamples
// are returned as replayable lassos. The recorder is spent afterwards.
func (r *Recorder) Result(run explore.Result) (Result, error) {
	start := time.Now()
	res := Result{
		States:      run.States,
		Transitions: run.Transitions,
		Depth:       run.Depth,
		Complete:    run.Complete,
		Stopped:     run.Stopped,
	}
	switch run.Stopped {
	case explore.StopPanic, explore.StopSpill:
		// A panic tears the last layer: a state may be half expanded,
		// which would under-report what is enabled there. A failed spill
		// stopped the run on a broken disk; neither is analysed.
		return res, fmt.Errorf("liveness: recorded run failed: %w", run.Err)
	}
	// The run's visited set and last frontier died with it, and the graph
	// arrays are about to be allocated beside the log: collecting here,
	// not when the pacer next gets to it, keeps the two from stacking.
	runtime.GC()
	procs := runtime.GOMAXPROCS(0)
	res.LogBytes = r.logBytes()
	g, err := r.build(procs)
	if err != nil {
		return res, err
	}
	if len(g.hash) != run.States || len(g.eto) != run.Transitions {
		return res, fmt.Errorf("liveness: recorded %d states and %d transitions of a run that visited %d and took %d (not attached from the initial state?)",
			len(g.hash), len(g.eto), run.States, run.Transitions)
	}
	res.GraphBytes = g.bytes()
	// One search per property per core; each reads the graph and writes
	// only its own walk, so the verdicts do not depend on procs.
	walks := make([][]walkEdge, len(r.props))
	if err := parallel(procs, len(r.props), func(i int) error {
		walks[i] = g.fairCycle(i)
		return nil
	}); err != nil {
		return res, err
	}
	var parent []int32 // BFS parents, derived for the first lasso
	for i, p := range r.props {
		pr := PropertyResult{Name: p.Name, Desc: p.Desc, Holds: true}
		if walks[i] != nil {
			if parent == nil {
				parent = g.parents()
			}
			lasso, err := g.lasso(walks[i], parent)
			if err != nil {
				return res, fmt.Errorf("liveness: %s: %w", p.Name, err)
			}
			pr.Holds = false
			pr.Counterexample = lasso
		}
		res.Properties = append(res.Properties, pr)
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// maxProperties bounds the per-node property bitmask.
const maxProperties = 32

// entities lays out the weak-fairness entities of one model instance in
// a 64-bit mask: process entities for the collector and each mutator
// (bit = PID), one buffer-drain entity per buffered process, and one
// handshake-response entity per mutator. The system process needs no
// entity of its own — it moves only as the responder of a rendezvous
// (attributed to the requester) or through the dequeue transition
// (attributed to the drained buffer's entity).
type entities struct {
	nmut int
}

// count is the number of entities: (1+nmut) processes, (1+nmut)
// buffers, nmut handshake responders.
func (e entities) count() int { return 3*e.nmut + 2 }

// proc is the process entity of the collector (PID 0) or a mutator.
func (e entities) proc(p cimp.PID) uint64 { return 1 << uint(p) }

// drain is the buffer-drain entity of PID p's store buffer.
func (e entities) drain(p cimp.PID) uint64 { return 1 << uint(e.nmut+1+int(p)) }

// hs is the handshake-response entity of mutator ordinal m.
func (e entities) hs(m int) uint64 { return 1 << uint(2*(e.nmut+1)+m) }

// An edge stores the entities it serves as a one-byte code, an index into
// codes(): none, a process entity per collector and mutator, a mutator's
// process and handshake-response entities together, and a buffer's drain
// entity. These are every set takenCode returns, 3·nmut+3 of them.
const noneCode = 0

func (e entities) procCode(p cimp.PID) uint8  { return uint8(1 + int(p)) }
func (e entities) hsCode(m int) uint8         { return uint8(2 + e.nmut + m) }
func (e entities) drainCode(p cimp.PID) uint8 { return uint8(2 + 2*e.nmut + int(p)) }

// codes is the table a code indexes: the entity mask of each code.
func (e entities) codes() []uint64 {
	c := make([]uint64, 3*e.nmut+3)
	for p := cimp.PID(0); int(p) <= e.nmut; p++ {
		c[e.procCode(p)] = e.proc(p)
		c[e.drainCode(p)] = e.drain(p)
	}
	for m := 0; m < e.nmut; m++ {
		c[e.hsCode(m)] = e.proc(cimp.PID(m+1)) | e.hs(m)
	}
	return c
}

// name renders entity bit index b for diagnostics.
func (e entities) name(b int) string {
	switch {
	case b == 0:
		return "proc(gc)"
	case b <= e.nmut:
		return fmt.Sprintf("proc(m%d)", b-1)
	case b == e.nmut+1:
		return "drain(gc)"
	case b <= 2*e.nmut+1:
		return fmt.Sprintf("drain(m%d)", b-e.nmut-2)
	default:
		return fmt.Sprintf("hs(m%d)", b-2*e.nmut-2)
	}
}
