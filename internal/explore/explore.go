// Package explore is an explicit-state model checker for the GC model: a
// parallel breadth-first search over the CIMP system semantics with
// compact hashed state fingerprints, invariant checking at every
// reachable state, and counterexample trace reconstruction. It plays the
// role of the paper's Isabelle/HOL induction over the reachable states
// of the _⇒_ relation, restricted to bounded configurations.
//
// # Architecture
//
// The search is layer-synchronous: all states at BFS depth d are
// expanded by Options.Workers goroutines before any state at depth d+1
// is expanded. The layer barrier preserves the sequential checker's
// shortest-counterexample guarantee and its MaxDepth accounting, and
// makes the verdict — state count, transition count, depth, deadlocks,
// violation or not — identical for every worker count. Workers claim
// chunks of the current layer from a shared cursor, so load balance is
// dynamic within a layer.
//
// The visited set is one open-addressed table keyed by the state's
// 64-bit FNV-1a fingerprint hash, cut into Options.Shards stripes by the
// hash's top bits; a worker claims a key with one compare-and-swap, and
// stripes are resized only at the layer barrier (visited.go). By default
// only the hash is retained (Options.HashOnly), at 20 payload bytes per
// state regardless of configuration size; the full canonical fingerprint
// encoding is kept only in the opt-in audit mode, which counts hash
// collisions (Result.HashCollisions) to back the compaction's soundness
// argument — see DESIGN.md.
//
// Memory: full states live only on the two live BFS layers (current and
// next); visited states are retained as hashes plus, when Options.Trace
// is set, a compact (parent hash, event index) pair per state.
// Counterexample traces are materialized afterwards by replaying the
// recorded event indices from the initial state.
//
// # State-space reduction
//
// Options.Reduce enables a TSO-aware partial-order reduction (the ample
// sets are chosen by gcmodel.AmpleChoice; see gcmodel/reduce.go for the
// commutation argument). It preserves deterministic verdicts and concrete
// counterexample replay, and is validated against full exploration by the
// differential harness in internal/diffcheck. See DESIGN.md.
package explore

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cimp"
	"repro/internal/gcmodel"
	"repro/internal/invariant"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Options bounds and instruments a run.
type Options struct {
	// MaxStates caps the number of distinct states visited (0 = no cap).
	// A state is expanded whole or not at all: when the count crosses the
	// cap, the state being expanded (and the one each other worker has in
	// hand) is finished and all its successors are inserted, then the
	// workers stop claiming states. Workers count their new states locally
	// and publish them when they finish a chunk of the layer (at most 256
	// states), and a worker compares the cap with the published count plus
	// its own, so a capped run overshoots by at most one chunk's new states
	// per other worker plus one state's successors (a single worker: the
	// latter alone). Every visited state has either all of its
	// out-transitions taken or none, and the exact count can vary across
	// worker counts; uncapped runs are exactly deterministic.
	MaxStates int
	// MaxDepth caps the BFS depth (0 = no cap): states at MaxDepth are
	// still visited and checked, but not expanded.
	MaxDepth int
	// Trace records a compact (parent hash, event index) pair per state
	// so a counterexample path can be reconstructed by replay.
	Trace bool
	// Progress, if non-nil, receives a Progress report roughly every
	// ProgressEvery newly visited states. Reports are driven by a
	// monotonic counter — the published state count plus the reporting
	// worker's own, which trails the true count by what the other workers
	// have not published yet — so they can neither skip nor double-report
	// an interval regardless of worker count. The transition count in a
	// report is a mid-layer read of the workers' published totals and may
	// trail the state count slightly.
	Progress func(Progress)
	// ProgressEvery is the number of newly visited states between
	// Progress calls (0 = 8192).
	ProgressEvery int
	// Workers is the number of goroutines expanding each BFS layer
	// (0 = GOMAXPROCS). Verdicts do not depend on the worker count.
	Workers int
	// Shards is the number of stripes the visited table is cut into by
	// the hash's top bits, rounded up to a power of two (0 = 64). A stripe
	// is the unit of growth, of a checkpoint section and of the audit-mode
	// lock.
	Shards int
	// HashOnly stores only the 64-bit fingerprint hash per visited state
	// (compact mode — the production default, wired by package core and
	// cmd/gcmc). When false, the checker additionally retains every
	// state's full canonical fingerprint and counts hash collisions in
	// Result.HashCollisions; this audit mode costs string-fingerprint
	// memory and exists to validate the compaction (the verdict itself
	// is computed from hashes in both modes, so the two modes agree
	// exactly whenever HashCollisions is 0).
	HashOnly bool
	// Reduce enables the TSO-aware partial-order reduction: at states
	// where gcmodel.AmpleChoice nominates a safe buffer-local step
	// (store-buffer enqueues, lock-shielded or single-writer reads,
	// no-op fences, lock releases), only that single transition is
	// pursued and the commuting interleavings against it are skipped.
	// Reduced exploration visits a subset of the full state space and,
	// by the ample-set argument in gcmodel/reduce.go, preserves the
	// verdict; recorded event indices still number the *unreduced*
	// successor enumeration, so counterexamples replay through the
	// unreduced relation. Reduction is validated continuously against
	// full exploration by the differential harness in
	// internal/diffcheck. A reduced run loses the BFS
	// shortest-counterexample guarantee: safe steps are taken eagerly,
	// so a violation may be reported at a greater depth than the
	// minimal one (never a different verdict).
	Reduce bool
	// Visitors are attached to the search's two observation points: every
	// transition taken and every newly visited state. See Visitor.
	Visitors []Visitor
	// Context, if non-nil, requests graceful interruption: cancellation
	// is observed at layer boundaries only ("finish the current layer"),
	// so an interrupted run stops at a consistent cut, writes a final
	// checkpoint when one is configured, and reports
	// Result.Stopped == StopInterrupted. Mid-layer work is never torn.
	Context context.Context
	// Checkpoint configures periodic snapshots of the search at layer
	// boundaries; see CheckpointOptions.
	Checkpoint CheckpointOptions
	// Resume, if non-nil, restores the search from a snapshot instead of
	// the initial state. The snapshot's options fingerprint must match
	// this run's (model configuration and every verdict-relevant option;
	// the worker count is deliberately excluded, so a run may be resumed
	// with a different parallelism). A mismatch or a corrupt snapshot
	// refuses the run with Result.Stopped == StopResume. A resumed run
	// reaches the same final state/transition/depth counts and verdict
	// as the uninterrupted run.
	Resume *checkpoint.Snapshot
	// MemBudget, if positive, is a soft heap budget in bytes enforced by
	// a watchdog at layer boundaries. As the live heap approaches the
	// budget the run degrades in steps rather than dying to the OOM
	// killer: at 70% it writes a one-time emergency checkpoint (when a
	// checkpoint path is configured); at 85% it drops audit-mode
	// fingerprint retention and continues hash-only (Result.Degraded);
	// at 100% it writes a final checkpoint and stops cleanly with
	// Result.Stopped == StopMemBudget.
	MemBudget int64
	// MemSample overrides the watchdog's heap probe (a test hook; nil
	// means runtime.ReadMemStats HeapAlloc).
	MemSample func() uint64
	// SpillDir, if set, arms the disk-spill degradation rung: at the
	// watchdog's 85% rung the explorer spills visited-set records and
	// frontier layers to CRC-framed section files under this directory
	// and keeps going, so a run that would stop at the 100% rung
	// completes degraded-but-exhaustive (see Result.Spilled). Spilling
	// changes only the representation of the search state, never the
	// verdict, so it is excluded from OptionsFingerprint. A spill I/O
	// failure stops the run loudly with StopSpill. See spill.go.
	SpillDir string
	// FS routes the run's durable writes (checkpoints and spill files)
	// through a storage.FS; nil means the real filesystem. Process-
	// local and verdict-neutral: excluded from OptionsFingerprint.
	FS storage.FS
}

// CheckpointOptions configures run snapshots.
type CheckpointOptions struct {
	// Path is the checkpoint file; empty disables checkpointing. Writes
	// are atomic (temp file + rename), so the file always holds the
	// latest complete snapshot.
	Path string
	// EveryLayers is the number of BFS layers between periodic
	// snapshots (0 = 16 when Path is set). Interruption and the memory
	// watchdog write additional snapshots regardless of cadence.
	EveryLayers int
}

// Visitor is an analysis attached to the search. The engine calls it
// from every worker concurrently, so implementations synchronize their
// own state. A resumed run (Options.Resume) shows a visitor only the
// part of the space explored after the cut.
//
// Edge.To is borrowed: it is the worker's scratch process table, valid
// only during the Edge call and overwritten by the next transition. A
// visitor that keeps the successor takes Edge.To.CloneShallow(). Edge.From
// and Node.State are the search's own states and may be kept.
type Visitor interface {
	// Edge is called for every transition the search takes, including
	// transitions into already-visited states. A non-nil error is
	// reported as an "event-check" violation at the successor, with the
	// usual minimal-depth/minimal-hash tie-breaking.
	Edge(Edge) error
	// State is called once per newly visited state, after the invariant
	// battery, by the worker that inserted it. A non-nil error is
	// reported as a "state-check" violation.
	State(Node) error
	// Checks reports whether the visitor can fail the run. A checking
	// visitor is part of what the verdict covers and enters
	// OptionsFingerprint; one that only observes does not, so the same
	// checkpoint serves a run with or without it.
	Checks() bool
}

// Edge is one transition as a Visitor sees it.
type Edge struct {
	From, To         cimp.System[*gcmodel.Local]
	FromHash, ToHash uint64
	Ev               cimp.Event
	// EIdx is the transition's index in From's unreduced successor
	// enumeration: the recipe ReplayStep takes.
	EIdx int
}

// Node is one newly visited state as a Visitor sees it.
type Node struct {
	State cimp.System[*gcmodel.Local]
	Hash  uint64
	Depth int
}

// Progress is one progress report.
type Progress struct {
	// States is the number of distinct states visited so far.
	States int
	// Transitions is the number of transitions taken so far (a mid-layer
	// approximation: workers publish their totals at chunk boundaries).
	Transitions int
	// Depth is the BFS depth currently being expanded into.
	Depth int
	// Frontier is the size of the layer currently being expanded.
	Frontier int
	// Elapsed is the wall-clock time since the run (not the original,
	// pre-resume run) started.
	Elapsed time.Duration
}

// StopReason says why a run ended before exhausting the state space.
type StopReason string

const (
	// StopNone: the reachable state space was exhausted — the verdict is
	// over the complete bounded model.
	StopNone StopReason = ""
	// StopViolation: an invariant failed; the search stopped at the end
	// of the violating layer.
	StopViolation StopReason = "violation"
	// StopMaxStates: the MaxStates cap fired.
	StopMaxStates StopReason = "max-states"
	// StopMaxDepth: the MaxDepth cap fired.
	StopMaxDepth StopReason = "max-depth"
	// StopInterrupted: Options.Context was cancelled; the run finished
	// its layer and stopped at a consistent cut.
	StopInterrupted StopReason = "interrupted"
	// StopMemBudget: the memory watchdog exhausted its degradation
	// ladder and stopped the run.
	StopMemBudget StopReason = "mem-budget"
	// StopPanic: a worker panicked; the run was poisoned and terminated
	// within the layer. Result.Err holds the *PanicError.
	StopPanic StopReason = "panic"
	// StopResume: Options.Resume was refused (options mismatch or a
	// damaged snapshot). Nothing was explored; Result.Err says why.
	StopResume StopReason = "resume-refused"
	// StopSpill: the disk-spill rung was armed but its I/O failed; the
	// run stopped at a boundary rather than complete on a disk that
	// lies. Result.Err names the failed operation.
	StopSpill StopReason = "spill-failed"
)

// PanicError is the structured report of a contained worker panic.
type PanicError struct {
	// Depth is the layer being expanded when the panic fired.
	Depth int
	// StateHash is the fingerprint hash of the state the panicking
	// worker was expanding.
	StateHash uint64
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack, captured at recovery
	// (deferred functions run before the stack unwinds, so the panic
	// origin frames are included).
	Stack []byte
}

func (p *PanicError) Error() string {
	return fmt.Sprintf("worker panic at depth %d (state %016x): %v", p.Depth, p.StateHash, p.Value)
}

// Step is one transition of a counterexample trace.
type Step struct {
	Ev    cimp.Event
	State cimp.System[*gcmodel.Local]
}

// Violation reports an invariant failure at a reachable state.
type Violation struct {
	Invariant string
	Err       error
	Depth     int
	State     cimp.System[*gcmodel.Local]
	// Trace is the path from the initial state (inclusive of the failing
	// state, exclusive of the initial state); empty unless Options.Trace.
	Trace []Step
}

func (v *Violation) Error() string {
	return fmt.Sprintf("%s violated at depth %d: %v", v.Invariant, v.Depth, v.Err)
}

// Render formats the violation with its counterexample trace (if
// recorded) for human consumption.
func (v *Violation) Render(m *gcmodel.Model) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s violated at depth %d: %v\n", v.Invariant, v.Depth, v.Err)
	if len(v.Trace) > 0 {
		fmt.Fprintf(&b, "counterexample (%d steps):\n", len(v.Trace))
		fmt.Fprintf(&b, "  init: %s\n", trace.State(m, m.Initial()))
		for i, s := range v.Trace {
			fmt.Fprintf(&b, "  %3d. %-60s %s\n", i+1, trace.Event(m, s.Ev), trace.State(m, s.State))
		}
	} else {
		fmt.Fprintf(&b, "state: %s\n", trace.State(m, v.State))
	}
	return b.String()
}

// Result summarizes an exploration.
type Result struct {
	// States is the number of distinct reachable states visited.
	States int
	// Transitions is the number of transitions taken.
	Transitions int
	// Depth is the deepest BFS layer reached.
	Depth int
	// Complete reports whether the full reachable state space was
	// exhausted: it is exactly Stopped == StopNone. Any stop — a cap, an
	// interruption, the memory watchdog, a violation, a panic — leaves
	// the run incomplete, and no caller may treat an incomplete run's
	// absence of violations as "the property holds".
	Complete bool
	// Stopped says why the run ended early (StopNone for a complete
	// run).
	Stopped StopReason
	// Err carries the structured error for StopPanic (a *PanicError) and
	// StopResume, or a checkpoint-write failure that did not stop the
	// run. Nil otherwise.
	Err error
	// Checkpoints is the cumulative number of snapshots written,
	// carried across resumes.
	Checkpoints int
	// Degraded reports that the memory watchdog dropped audit-mode
	// fingerprint retention mid-run (or that the run resumed from a
	// degraded snapshot): HashCollisions then undercounts.
	Degraded bool
	// Deadlocks counts states with no outgoing transition.
	Deadlocks int
	// Violation is the minimal-depth invariant failure found, or nil.
	Violation *Violation
	// HashCollisions counts pairs of distinct canonical fingerprints
	// observed to share a 64-bit hash. Only audit mode (HashOnly off)
	// can detect collisions; the count is always 0 in compact mode.
	HashCollisions int
	// AmpleStates counts the expanded states at which the partial-order
	// reduction restricted the successor set to a single safe
	// transition. Always 0 unless Options.Reduce.
	AmpleStates int
	// VisitedBytes is the payload memory retained by the visited set: 20
	// bytes per state (key, parent hash, event index; 8 once the records
	// have spilled) plus the audit-mode fingerprint strings. It is a
	// function of the set, not of the table's capacity (Table has that).
	VisitedBytes int64
	// Table describes the visited table when the run ended: capacity,
	// load, stripes rebuilt and overflow hits.
	Table TableStats
	// Spilled reports the disk-spill rung's counters; zero unless
	// Options.SpillDir was set and the rung fired.
	Spilled SpillStats
	// Memo reports the model's configuration table (cimp/memo.go): its
	// size when the run ended, and the lookups, interned configurations
	// and retired tables of this run. Lookup counts depend on worker
	// timing and on where a run started; they describe the run, not the
	// verdict.
	Memo cimp.MemoStats
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
}

// qent is one frontier entry: a full state plus its fingerprint hash.
type qent struct {
	state cimp.System[*gcmodel.Local]
	hash  uint64
}

// explorer is the shared run state of one exploration.
type explorer struct {
	m       *gcmodel.Model
	checks  []invariant.Check
	opt     Options
	workers int
	every   int

	init     cimp.System[*gcmodel.Local]
	initHash uint64
	seen     *visited

	// ws are the workers' private states and ins their sides of the
	// visited table (ins[i] is ws[i].ins), kept for the whole run; spare is
	// the layer buffer not in use.
	ws    []*worker
	ins   []*inserter
	spare []qent

	// The run's counters. Workers count locally and publish when they
	// finish a chunk of the layer.
	states      atomic.Int64
	transitions atomic.Int64
	ample       atomic.Int64
	deadlocks   atomic.Int64
	capped      atomic.Bool
	violated    atomic.Bool
	lastReport  atomic.Int64

	violMu   sync.Mutex
	viol     *Violation
	violHash uint64

	progressMu  sync.Mutex
	start       time.Time
	frontierLen atomic.Int64

	// Panic containment: a worker panic poisons the run (checked in the
	// chunk-claim loop so every worker bails within its current chunk),
	// and the first panic's structured report wins.
	poisoned atomic.Bool
	panicMu  sync.Mutex
	panicErr *PanicError

	// Durability bookkeeping, touched only at layer boundaries.
	optFP       uint64
	optSummary  string
	checkpoints int
	ckptErr     error
	degraded    bool
	emergency   bool
	memSample   func() uint64

	// Disk-spill rung (spill.go). spill is nil unless SpillDir is set;
	// parked points at the on-disk file backing the layer currently
	// being expanded (set at the boundary, before workers start);
	// spillBad poisons the claim loops when a worker's spill read
	// fails, mirroring capped/poisoned.
	spill    *spillState
	parked   *parkedLayer
	spillBad atomic.Bool
}

// Run explores the model's reachable states, checking every invariant at
// every state, and stops at the first (minimal-depth) violation or when
// the space (or a cap) is exhausted.
func Run(m *gcmodel.Model, checks []invariant.Check, opt Options) Result {
	return RunFrom(m, m.Initial(), checks, opt)
}

// RunFrom is Run starting at an explicit initial state, e.g. one with
// fusion disabled for a validation pass.
func RunFrom(m *gcmodel.Model, init cimp.System[*gcmodel.Local], checks []invariant.Check, opt Options) Result {
	e := newExplorer(m, init, checks, opt)
	memo := m.Index.MemoStats()
	res := e.run()
	res.Memo = m.Index.MemoStats().Sub(memo)
	res.Elapsed = time.Since(e.start)
	return res
}

func newExplorer(m *gcmodel.Model, init cimp.System[*gcmodel.Local], checks []invariant.Check, opt Options) *explorer {
	start := time.Now()
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	every := opt.ProgressEvery
	if every <= 0 {
		every = 8192
	}
	e := &explorer{
		m:         m,
		checks:    checks,
		opt:       opt,
		workers:   workers,
		every:     every,
		init:      init,
		seen:      newVisited(opt.Shards, !opt.HashOnly),
		start:     start,
		memSample: opt.MemSample,
	}
	for i := 0; i < workers; i++ {
		w := &worker{ins: e.seen.inserter(), buf: make([]byte, 0, 256)}
		e.ws, e.ins = append(e.ws, w), append(e.ins, w.ins)
	}
	e.optFP, e.optSummary = OptionsFingerprint(m, checks, opt)
	if e.memSample == nil {
		e.memSample = func() uint64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return ms.HeapAlloc
		}
	}
	if opt.SpillDir != "" {
		e.spill = newSpillState(opt.FS, opt.SpillDir, opt.Trace)
	}
	return e
}

// OptionsFingerprint hashes everything the verdict depends on: the model
// configuration and every exploration option that changes which states
// are visited, what is checked, or how the visited set is keyed and laid
// out. The worker count is deliberately excluded (the layer barrier
// makes verdicts worker-count independent), so a checkpoint may be
// resumed with different parallelism. The summary string is embedded in
// checkpoints so a refused resume can say what differed. It is exported
// so the job layer (package core) and the verdict cache (package server)
// can key cached verdicts by the exact fingerprint the checkpoint layer
// validates on resume.
func OptionsFingerprint(m *gcmodel.Model, checks []invariant.Check, opt Options) (uint64, string) {
	shards := opt.Shards
	if shards <= 0 {
		shards = 64
	}
	shards = 1 << bits.Len(uint(shards-1))
	names := make([]string, len(checks))
	for i, c := range checks {
		names[i] = c.Name
	}
	// The summary is frozen (checkpoints and cached verdicts are keyed
	// by it): its two hook fields both say whether any visitor checks, and
	// symmetry=false is a literal, so a checkpoint an older build keyed by
	// mutator-symmetry-canonical fingerprints is refused, not resumed.
	checking := slices.ContainsFunc(opt.Visitors, Visitor.Checks)
	summary := fmt.Sprintf(
		"cfg=%+v checks=%v maxStates=%d maxDepth=%d trace=%v hashOnly=%v reduce=%v symmetry=false shards=%d eventCheck=%v stateCheck=%v",
		m.Cfg, names, opt.MaxStates, opt.MaxDepth, opt.Trace, opt.HashOnly,
		opt.Reduce, shards, checking, checking,
	)
	return gcmodel.Hash64([]byte(summary)), summary
}

func (e *explorer) run() Result {
	var res Result

	buf := e.m.AppendFingerprint(nil, e.init)
	e.initHash = gcmodel.Hash64(buf)

	var layer []qent
	startDepth := 0
	if e.opt.Resume != nil {
		var err error
		layer, startDepth, err = e.restore(e.opt.Resume)
		if err != nil {
			res.Stopped = StopResume
			res.Err = err
			return res
		}
	} else {
		e.seen.insert(e.ins[0], e.initHash, rec{eidx: -1}, buf)
		e.seen.settle(e.ins[:1], 1)
		e.states.Store(1)
		if v := e.check(e.ws[0], e.init, e.initHash, 0); v != nil {
			res.Violation = v
			res.Stopped = StopViolation
			e.collect(&res)
			return res
		}
		layer = []qent{{state: e.init, hash: e.initHash}}
	}

	every := e.opt.Checkpoint.EveryLayers
	if every <= 0 {
		every = 16
	}
	layersDone := 0
	for depth := startDepth; len(layer) > 0; depth++ {
		res.Depth = depth
		if e.opt.MaxDepth > 0 && depth >= e.opt.MaxDepth {
			res.Stopped = StopMaxDepth
			break
		}
		if e.spill != nil {
			e.parked = e.spill.takeParked()
		}
		layer = e.expandLayer(layer, depth)
		e.parked = nil
		layersDone++
		if e.panicErr != nil {
			// The visited set and counters may be mid-update for this
			// layer: no checkpoint is written from a poisoned run.
			res.Stopped = StopPanic
			res.Err = e.panicErr
			break
		}
		if e.violated.Load() {
			res.Stopped = StopViolation
			break
		}
		if e.spill != nil {
			if err := e.spill.firstErr(); err != nil {
				// A worker's spill read failed mid-layer: the layer is
				// torn, so nothing below may treat it as a cut.
				res.Stopped = StopSpill
				res.Err = err
				break
			}
		}
		if e.capped.Load() {
			// Workers bail mid-layer on the cap, so the frontier is not
			// a consistent cut: no checkpoint either.
			res.Stopped = StopMaxStates
			break
		}
		// The layer barrier has been crossed: the frontier at depth+1 is
		// complete and every counter is settled — the only consistent
		// cut. Checkpoints, the memory watchdog, the spill rung, and
		// cancellation all act here.
		if stop := e.watchdog(depth+1, layer, &res); stop {
			if err := e.spillErr(); err != nil {
				res.Stopped = StopSpill
				res.Err = err
			} else {
				res.Stopped = StopMemBudget
			}
			break
		}
		if e.spill != nil && e.spill.isActive() {
			if err := e.spill.boundary(e.m, e.seen, layer); err != nil {
				res.Stopped = StopSpill
				res.Err = err
				break
			}
		}
		if interrupted(e.opt.Context) {
			e.writeCheckpoint(depth+1, layer)
			res.Stopped = StopInterrupted
			break
		}
		if e.opt.Checkpoint.Path != "" && layersDone%every == 0 && len(layer) > 0 {
			e.writeCheckpoint(depth+1, layer)
		}
	}

	if e.viol != nil {
		res.Violation = e.viol
		if e.opt.Trace {
			if path, err := e.tracePath(e.violHash); err != nil {
				// The verdict (a violation) stands; only its replayed
				// counterexample was lost to the failed spill read.
				if res.Err == nil {
					res.Err = err
				}
			} else {
				res.Violation.Trace = e.replay(path)
			}
		}
	}
	res.Complete = res.Stopped == StopNone
	if res.Err == nil {
		res.Err = e.ckptErr
	}
	if e.spill != nil {
		e.spill.cleanup()
	}
	e.collect(&res)
	return res
}

// interrupted reports whether ctx (possibly nil) has been cancelled.
func interrupted(ctx context.Context) bool {
	if ctx == nil {
		return false
	}
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}

// collect folds the counters and the visited table's into the result.
func (e *explorer) collect(res *Result) {
	res.States = int(e.states.Load())
	res.Transitions = int(e.transitions.Load())
	res.AmpleStates = int(e.ample.Load())
	res.Deadlocks = int(e.deadlocks.Load())
	res.Checkpoints = e.checkpoints
	res.Degraded = e.degraded
	for i := range e.seen.stripes {
		res.HashCollisions += int(e.seen.stripes[i].collisions)
	}
	res.VisitedBytes = e.seen.bytes()
	res.Table = e.seen.stats()
	if e.spill != nil {
		res.Spilled = e.spill.stats()
	}
}

// worker is one expansion goroutine's private state, kept for the whole
// run so that the hot loop's buffers are allocated once: the process table
// successors are borrowed in, the fingerprint buffer, the invariant view,
// this worker's share of the next layer, and the counts it has not
// published yet.
type worker struct {
	states, transitions int64
	succ                gcmodel.Scratch
	buf                 []byte
	view                invariant.View
	next                []qent
	ins                 *inserter
	_                   [64]byte // keep the next worker's counters off this one's last line
}

// publish adds the worker's counts to the run's. Called when a chunk of
// the layer is done, so the shared counters are written once per chunk,
// not once per state.
func (e *explorer) publish(w *worker) {
	e.states.Add(w.states)
	e.transitions.Add(w.transitions)
	w.states, w.transitions = 0, 0
	w.succ.Flush()
}

// expandLayer expands every state of the depth-d layer and returns the
// depth-d+1 layer; it ends with the layer barrier's work on the visited
// table. When a violation is found the remainder of the layer is still
// expanded and checked, so that the reported violation is the
// deterministic minimum over the whole layer and the state/transition
// counts do not depend on worker scheduling.
func (e *explorer) expandLayer(layer []qent, depth int) []qent {
	e.frontierLen.Store(int64(len(layer)))
	k := min(e.workers, len(layer))
	chunk := min(len(layer)/(k*8)+1, 256)
	var cursor atomic.Int64
	if k == 1 {
		// The single-worker path gets the same containment as the
		// goroutine path: a panic poisons the run instead of crashing.
		func() {
			var cur uint64
			defer e.contain(&cur, depth)
			e.expandChunks(e.ws[0], layer, depth, &cursor, chunk, &cur)
		}()
	} else {
		var wg sync.WaitGroup
		for _, w := range e.ws[:k] {
			wg.Add(1)
			go func() {
				// Deferred LIFO: contain runs before Done, so the poison and
				// the structured report are published before the barrier
				// releases — a panicking worker can never hang the layer.
				defer wg.Done()
				var cur uint64
				defer e.contain(&cur, depth)
				e.expandChunks(w, layer, depth, &cursor, chunk, &cur)
			}()
		}
		wg.Wait()
	}
	// The workers keep their segments, and the run its two layer buffers,
	// from layer to layer: after the widest layer nothing here allocates.
	// Entries are cleared as they are left behind so that no buffer keeps a
	// state alive.
	total := 0
	for _, w := range e.ws[:k] {
		total += len(w.next)
	}
	next := slices.Grow(e.spare[:0], total)
	for _, w := range e.ws[:k] {
		next = append(next, w.next...)
		clear(w.next)
		w.next = w.next[:0]
	}
	clear(layer)
	e.spare = layer[:0]
	e.settle(k, len(next), depth)
	return next
}

// settle is the visited table's part of the barrier: the stripes the
// coming layer of frontier states could overfill are rebuilt, the workers
// sharing them out one at a time — so at most that many stripes exist
// twice — under the same containment as an expansion.
func (e *explorer) settle(k, frontier, depth int) {
	due, head := e.seen.fold(e.ins[:k], frontier)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for range min(e.workers, len(due)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var none uint64 // no state is in hand at the barrier
			defer e.contain(&none, depth)
			for i := int(cursor.Add(1)) - 1; i < len(due); i = int(cursor.Add(1)) - 1 {
				e.seen.rebuild(due[i], head)
			}
		}()
	}
	wg.Wait()
}

// contain is deferred around every worker body: it recovers a panic,
// captures the panicking stack (defers run before unwinding, so the
// origin frames are present) and the state being expanded — *cur, a
// variable on the worker's own frame that only the worker writes — and
// poisons the run so the other workers drain their claim loops.
func (e *explorer) contain(cur *uint64, depth int) {
	r := recover()
	if r == nil {
		return
	}
	pe := &PanicError{
		Depth:     depth,
		StateHash: *cur,
		Value:     r,
		Stack:     debug.Stack(),
	}
	e.panicMu.Lock()
	if e.panicErr == nil {
		e.panicErr = pe
	}
	e.panicMu.Unlock()
	e.poisoned.Store(true)
}

// expandChunks is the worker body: it claims chunks of the current layer
// from the shared cursor until the layer is drained (or the state cap
// fires, or a sibling worker poisons the run) and leaves its share of the
// next layer in w.next. *curHash is kept at the hash of the state in hand,
// for contain.
func (e *explorer) expandChunks(w *worker, layer []qent, depth int, cursor *atomic.Int64, chunk int, curHash *uint64) {
	var ample, deadlocks int64
	nd := depth + 1
claim:
	for {
		lo := int(cursor.Add(int64(chunk))) - chunk
		if lo >= len(layer) {
			break
		}
		hi := min(lo+chunk, len(layer))
		// A parked layer's states live on disk: fetch this chunk's range
		// with one contiguous read. A failed read poisons the spill (the
		// layer can no longer be expanded completely) and drains every
		// worker, mirroring the cap.
		var fetched []cimp.System[*gcmodel.Local]
		if pl := e.parked; pl != nil {
			var err error
			fetched, err = pl.fetchRange(e.m, lo, hi)
			if err != nil {
				e.spill.fail(err)
				e.spillBad.Store(true)
				break claim
			}
		}
		for i := lo; i < hi; i++ {
			if e.capped.Load() || e.poisoned.Load() || e.spillBad.Load() {
				break claim
			}
			cur := layer[i]
			if fetched != nil {
				cur.state = fetched[i-lo]
			}
			*curHash = cur.hash
			var amp gcmodel.Ample
			if e.opt.Reduce {
				amp = e.m.AmpleChoice(cur.state)
			}
			out, taken := e.expandState(w, cur, nd, amp)
			if amp.OK {
				if taken > 0 {
					ample++
				} else {
					// The oracle nominated a transition the relation
					// refused (safeRequest should mirror the system
					// guards exactly); expand fully rather than
					// truncate the search. Nothing was inserted by the
					// filtered pass, so re-expansion is clean.
					out, _ = e.expandState(w, cur, nd, gcmodel.Ample{})
				}
			}
			if out == 0 {
				deadlocks++
			}
		}
		// Progress reports see a near-current count mid-layer.
		e.publish(w)
	}
	e.publish(w)
	e.ample.Add(ample)
	e.deadlocks.Add(deadlocks)
}

// expandState enumerates cur's successors — restricted to the ample
// transition when amp.OK — inserting new states into the visited set
// and the worker's next layer. It returns the full successor count and
// the number of transitions actually taken. Event indices always
// number the complete, unreduced enumeration (skipped successors still
// advance eidx), so traces recorded under reduction replay through the
// unreduced relation.
//
// Successors arrive borrowed, in the worker's scratch process table: they
// are fingerprinted, hashed, shown to the Edge visitors and probed for as
// they are, and only one that turns out to be new — or to violate — gets a
// process table of its own.
func (e *explorer) expandState(w *worker, cur qent, nd int, amp gcmodel.Ample) (out, taken int) {
	e.m.SuccessorsBorrowed(&w.succ, cur.state, func(ns cimp.System[*gcmodel.Local], ev cimp.Event) bool {
		eidx := out
		out++
		if amp.OK && !amp.Matches(ev) {
			return true
		}
		taken++
		w.transitions++
		var h uint64
		if e.opt.HashOnly {
			h, w.buf = e.m.BorrowedHash(&w.succ, ns, w.buf)
		} else {
			w.buf = e.m.AppendFingerprint(w.buf[:0], ns)
			h = gcmodel.Hash64(w.buf)
		}
		for _, v := range e.opt.Visitors {
			edge := Edge{From: cur.state, To: ns, FromHash: cur.hash, ToHash: h, Ev: ev, EIdx: eidx}
			if err := v.Edge(edge); err != nil {
				e.offerViolation(&Violation{Invariant: "event-check", Err: err, Depth: nd, State: ns.CloneShallow()}, h)
				return true
			}
		}
		var r rec
		if e.opt.Trace {
			r = rec{parent: cur.hash, eidx: int32(eidx)}
		}
		if !e.seen.insert(w.ins, h, r, w.buf) {
			return true
		}
		ns = ns.CloneShallow()
		w.states++
		if e.opt.Progress != nil || e.opt.MaxStates > 0 {
			n := e.states.Load() + w.states
			e.maybeProgress(n, nd)
			if e.opt.MaxStates > 0 && n >= int64(e.opt.MaxStates) {
				e.capped.Store(true)
			}
		}
		if v := e.check(w, ns, h, nd); v != nil {
			e.offerViolation(v, h)
			return true
		}
		if !e.violated.Load() {
			w.next = append(w.next, qent{state: ns, hash: h})
		}
		return true
	})
	return out, taken
}

// check evaluates the invariant battery, then the visitors, at the newly
// visited state st, which the caller owns (a violation keeps it).
func (e *explorer) check(w *worker, st cimp.System[*gcmodel.Local], h uint64, depth int) *Violation {
	if len(e.checks) > 0 {
		w.view.Reset(gcmodel.Global{Model: e.m, State: st})
		for _, c := range e.checks {
			if err := c.Pred(&w.view); err != nil {
				return &Violation{Invariant: c.Name, Err: err, Depth: depth, State: st}
			}
		}
	}
	for _, v := range e.opt.Visitors {
		if err := v.State(Node{State: st, Hash: h, Depth: depth}); err != nil {
			return &Violation{Invariant: "state-check", Err: err, Depth: depth, State: st}
		}
	}
	return nil
}

// offerViolation records a violation candidate. All candidates of a run
// come from the same BFS layer (the barrier stops descent), so they
// share the minimal depth; the fingerprint hash breaks the tie between
// them deterministically, independent of worker scheduling.
func (e *explorer) offerViolation(v *Violation, h uint64) {
	e.violMu.Lock()
	if e.viol == nil || h < e.violHash {
		e.viol, e.violHash = v, h
	}
	e.violMu.Unlock()
	e.violated.Store(true)
}

// maybeProgress reports progress when the caller's count n — the
// published states plus its own — is at least ProgressEvery past the last
// report. The CAS on the monotonic counter guarantees each interval is
// reported exactly once, from whichever worker crosses it.
func (e *explorer) maybeProgress(n int64, depth int) {
	if e.opt.Progress == nil {
		return
	}
	last := e.lastReport.Load()
	if n-last < int64(e.every) || !e.lastReport.CompareAndSwap(last, n) {
		return
	}
	e.progressMu.Lock()
	e.opt.Progress(Progress{
		States:      int(n),
		Transitions: int(e.transitions.Load()),
		Depth:       depth,
		Frontier:    int(e.frontierLen.Load()),
		Elapsed:     time.Since(e.start),
	})
	e.progressMu.Unlock()
}

// pathStep is one edge of a counterexample path: the fingerprint hash of
// the state it leads to and the event index that produces it from its
// predecessor.
type pathStep struct {
	hash uint64
	eidx int32
}

// tracePath walks parent links from h back to the initial state and
// returns the path in forward order, initial state excluded. Under an
// active spill the flushed records are read back from disk first; an
// unreadable spill file is an error (the violation verdict stands,
// only its replayed counterexample is lost).
func (e *explorer) tracePath(h uint64) ([]pathStep, error) {
	var spilled map[uint64]rec
	if e.spill != nil && e.spill.isActive() {
		m, err := e.spill.loadRecs(e.seen.hot)
		if err != nil {
			return nil, err
		}
		spilled = m
	}
	var rev []pathStep
	for h != e.initHash {
		r, ok := spilled[h]
		if spilled == nil {
			r, ok = e.seen.lookup(h)
		}
		if !ok {
			panic("explore: visited-set parent chain broken (fingerprint hash collision?)")
		}
		rev = append(rev, pathStep{hash: h, eidx: r.eidx})
		h = r.parent
	}
	path := make([]pathStep, len(rev))
	for i, p := range rev {
		path[len(rev)-1-i] = p
	}
	return path, nil
}

// replay materializes the states along a counterexample path by
// re-running the transition relation from the initial state.
func (e *explorer) replay(path []pathStep) []Step {
	steps := make([]Step, 0, len(path))
	cur := e.init
	for _, ps := range path {
		st, err := ReplayStep(e.m, cur, ps.eidx, ps.hash)
		if err != nil {
			// Should be impossible: the path came from this relation.
			panic("explore: counterexample " + err.Error())
		}
		steps = append(steps, st)
		cur = st.State
	}
	return steps
}

// ReplayStep re-runs one recorded transition — the successor of cur at
// index eidx of its unreduced enumeration, which is how counterexample
// traces and liveness lassos are stored — and cross-checks the
// fingerprint hash of the state it reaches.
func ReplayStep(m *gcmodel.Model, cur cimp.System[*gcmodel.Local], eidx int32, want uint64) (Step, error) {
	var st Step
	n := int32(0)
	cur.Successors(func(next cimp.System[*gcmodel.Local], ev cimp.Event) {
		if n == eidx {
			st = Step{Ev: ev, State: next}
		}
		n++
	})
	switch {
	case eidx < 0 || eidx >= n:
		return st, fmt.Errorf("replay: event index %d out of range (%d successors)", eidx, n)
	case m.FingerprintHash(st.State) != want:
		return st, fmt.Errorf("replay diverged at event index %d (fingerprint hash collision?)", eidx)
	}
	return st, nil
}
