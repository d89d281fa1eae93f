package explore

import (
	"sync"
	"testing"

	"repro/internal/cimp"
	"repro/internal/gcmodel"
	"repro/internal/heap"
	"repro/internal/invariant"
)

// safeCfg is a small safe configuration whose reachable state space
// (~15k states) is exhausted in well under a second: the
// TestSafeModelShortExhaust workload (stores only, budget 1).
func safeCfg() gcmodel.Config {
	cfg := baseCfg()
	cfg.OpBudget = 1
	cfg.DisableLoad = true
	cfg.DisableDiscard = true
	cfg.MaxBuf = 1
	return cfg
}

// TestDeterministicAcrossWorkers: the layer-synchronous search makes
// every component of the verdict — state count, transitions, depth,
// deadlocks, completeness — independent of the worker count and of the
// shard geometry.
func TestDeterministicAcrossWorkers(t *testing.T) {
	m := mustBuild(t, safeCfg())
	var base Result
	for i, opt := range []Options{
		{Workers: 1, HashOnly: true},
		{Workers: 2, Shards: 4, HashOnly: true},
		{Workers: 8, Shards: 256, HashOnly: true},
		{Workers: 2, HashOnly: false}, // audit mode must agree exactly
	} {
		res := Run(m, invariant.Safety(), opt)
		if res.Violation != nil {
			t.Fatalf("opt %+v: unexpected violation: %v", opt, res.Violation)
		}
		if !res.Complete {
			t.Fatalf("opt %+v: not exhausted", opt)
		}
		if res.HashCollisions != 0 {
			t.Fatalf("opt %+v: %d hash collisions", opt, res.HashCollisions)
		}
		if i == 0 {
			base = res
			t.Logf("baseline: states=%d transitions=%d depth=%d deadlocks=%d",
				res.States, res.Transitions, res.Depth, res.Deadlocks)
			continue
		}
		if res.States != base.States || res.Transitions != base.Transitions ||
			res.Depth != base.Depth || res.Deadlocks != base.Deadlocks {
			t.Fatalf("opt %+v: results diverge: got (s=%d t=%d d=%d dl=%d), want (s=%d t=%d d=%d dl=%d)",
				opt, res.States, res.Transitions, res.Depth, res.Deadlocks,
				base.States, base.Transitions, base.Depth, base.Deadlocks)
		}
	}

	// Two mutators (distinct roots, stores on: ~100k states to depth 70),
	// with and without the reduction: nothing about a run may depend on
	// how many workers shared it.
	cfg := symCfg()
	cfg.InitRoots = []heap.RefSet{heap.SetOf(0), heap.SetOf(1)}
	cfg.DisableStore = false
	m = mustBuild(t, cfg)
	for _, reduce := range []bool{false, true} {
		counts := func(workers int) [5]int {
			res := Run(m, invariant.Safety(), Options{HashOnly: true, Reduce: reduce, MaxDepth: 70, Workers: workers})
			if res.Violation != nil {
				t.Fatalf("reduce=%v workers=%d: unexpected violation: %v", reduce, workers, res.Violation)
			}
			return [5]int{res.States, res.Transitions, res.Depth, res.Deadlocks, res.AmpleStates}
		}
		want := counts(1)
		if reduce == (want[4] == 0) {
			t.Fatalf("reduce=%v: ample at %d states", reduce, want[4])
		}
		for _, workers := range []int{2, 4} {
			if got := counts(workers); got != want {
				t.Errorf("reduce=%v workers=%d: (states, transitions, depth, deadlocks, ample) = %v, want %v", reduce, workers, got, want)
			}
		}
	}
}

// TestShortestCounterexampleAcrossWorkers: a seeded invariant violation
// (deletion barrier removed) yields the shortest counterexample trace,
// the trace replays to the same violating fingerprint, and both the
// violation depth and the chosen violating state are identical under 1
// and N workers.
func TestShortestCounterexampleAcrossWorkers(t *testing.T) {
	cfg := baseCfg()
	cfg.NoDeletionBarrier = true
	m := mustBuild(t, cfg)

	var depth int
	var violFP string
	for i, workers := range []int{1, 8} {
		res := Run(m, invariant.All(), Options{Trace: true, Workers: workers, HashOnly: true})
		v := res.Violation
		if v == nil {
			t.Fatalf("workers=%d: no violation found", workers)
		}
		if len(v.Trace) != v.Depth {
			t.Fatalf("workers=%d: trace length %d != depth %d", workers, len(v.Trace), v.Depth)
		}
		// The trace must replay to exactly the violating state.
		last := v.Trace[len(v.Trace)-1].State
		if got, want := m.Fingerprint(last), m.Fingerprint(v.State); got != want {
			t.Fatalf("workers=%d: trace replays to a different state than the violation", workers)
		}
		if i == 0 {
			depth, violFP = v.Depth, m.Fingerprint(v.State)
			t.Logf("violation at depth %d after %d states", v.Depth, res.States)
			continue
		}
		if v.Depth != depth {
			t.Fatalf("workers=%d: violation depth %d, want %d", workers, v.Depth, depth)
		}
		if m.Fingerprint(v.State) != violFP {
			t.Fatalf("workers=%d: different violating state chosen", workers)
		}
	}

	// Minimality: no violation is reachable strictly above the reported
	// depth — the layer barrier guarantees the counterexample is shortest.
	res := Run(m, invariant.All(), Options{MaxDepth: depth - 1, Workers: 4, HashOnly: true})
	if res.Violation != nil {
		t.Fatalf("violation at depth %d contradicts minimal depth %d",
			res.Violation.Depth, depth)
	}
}

// TestCollisionAudit explores a mid-size configuration with the full
// fingerprints retained (HashOnly off) and asserts that the 64-bit
// hashes of all distinct canonical fingerprints are themselves distinct.
//
// This documents the compaction's soundness argument: the checker's
// verdict is exact if and only if no two distinct reachable
// fingerprints collide in 64 bits. For n uniformly hashed states the
// collision probability is ≈ n²/2⁶⁵ (birthday bound) — about 10⁻⁹ at
// n = 10⁶ — and the audit mode turns that probabilistic argument into a
// checked fact for any configuration small enough to afford the
// strings. Compact mode is validated here, and can be re-validated for
// any new configuration via `gcmc -audit`.
func TestCollisionAudit(t *testing.T) {
	// The full tiny workload (loads, stores, discards, budget 2),
	// capped: ~200k distinct states through the hash audit.
	capStates, minStates := 200_000, 100_000
	if raceEnabled {
		// A smaller sample keeps the detector's slowdown in check while
		// still exercising the concurrent audit path.
		capStates, minStates = 50_000, 25_000
	}
	m := mustBuild(t, baseCfg())
	res := Run(m, nil, Options{MaxStates: capStates, Workers: 2, HashOnly: false})
	if res.States < minStates {
		t.Fatalf("audit explored only %d states — not a meaningful sample", res.States)
	}
	if res.HashCollisions != 0 {
		t.Fatalf("%d hash collisions among %d states", res.HashCollisions, res.States)
	}
	if res.VisitedBytes <= int64(res.States)*recBytes {
		t.Fatalf("audit mode should retain fingerprint strings: %d bytes for %d states",
			res.VisitedBytes, res.States)
	}
	t.Logf("0 collisions among %d states (%.1f audit bytes/state)",
		res.States, float64(res.VisitedBytes)/float64(res.States))
}

// TestVisitedSetCompaction: hashed fingerprints must cut the visited-set
// payload by at least 4× relative to retained string fingerprints, with
// an identical verdict.
func TestVisitedSetCompaction(t *testing.T) {
	m := mustBuild(t, safeCfg())
	compact := Run(m, nil, Options{Workers: 1, HashOnly: true})
	audit := Run(m, nil, Options{Workers: 1, HashOnly: false})
	if compact.States != audit.States || compact.Complete != audit.Complete {
		t.Fatalf("modes disagree: %d vs %d states", compact.States, audit.States)
	}
	cb := float64(compact.VisitedBytes) / float64(compact.States)
	ab := float64(audit.VisitedBytes) / float64(audit.States)
	t.Logf("bytes/state: hashed=%.1f strings=%.1f (%.1fx)", cb, ab, ab/cb)
	if ab < 4*cb {
		t.Fatalf("compaction below 4x: hashed %.1f B/state vs strings %.1f B/state", cb, ab)
	}
}

// TestProgressMonotonic: the progress callback fires on a monotonic
// "every N states since the last report" counter — strictly increasing
// state counts, intervals of at least N, no duplicate reports.
func TestProgressMonotonic(t *testing.T) {
	m := mustBuild(t, safeCfg())
	const every = 500
	var reports []int
	res := Run(m, nil, Options{
		Workers:       1,
		HashOnly:      true,
		ProgressEvery: every,
		Progress:      func(p Progress) { reports = append(reports, p.States) },
	})
	if len(reports) < res.States/every-1 {
		t.Fatalf("only %d reports for %d states at interval %d", len(reports), res.States, every)
	}
	prev := 0
	for _, s := range reports {
		if s-prev < every {
			t.Fatalf("report at %d states only %d after previous %d (interval %d)",
				s, s-prev, prev, every)
		}
		prev = s
	}
	if prev > res.States {
		t.Fatalf("reported %d states, final count %d", prev, res.States)
	}
}

// expansionLog is an observing Visitor that keeps, per expanded state,
// the state and the event indices of the transitions taken from it.
type expansionLog struct {
	mu    sync.Mutex
	from  map[uint64]cimp.System[*gcmodel.Local]
	eidxs map[uint64][]int
	nodes map[uint64]int
}

func (l *expansionLog) Edge(e Edge) error {
	l.mu.Lock()
	l.from[e.FromHash] = e.From
	l.eidxs[e.FromHash] = append(l.eidxs[e.FromHash], e.EIdx)
	l.mu.Unlock()
	return nil
}

func (l *expansionLog) State(n Node) error {
	l.mu.Lock()
	l.nodes[n.Hash] = n.Depth
	l.mu.Unlock()
	return nil
}

func (*expansionLog) Checks() bool { return false }

// TestVisitorSeesWholeExpansions pins what an analysis riding on the
// search may rely on, capped or not: every visited state is reported
// once, every transition counted is reported, and a state's transitions
// arrive in event-index order and all of them or none — a cap never
// leaves a state half expanded. An observing visitor also leaves the
// options fingerprint alone.
func TestVisitorSeesWholeExpansions(t *testing.T) {
	m := mustBuild(t, safeCfg())
	for _, opt := range []Options{
		{Workers: 4, HashOnly: true},
		{Workers: 4, HashOnly: true, MaxStates: 3000},
		{Workers: 4, HashOnly: true, MaxDepth: 60},
	} {
		bare, _ := OptionsFingerprint(m, invariant.Safety(), opt)
		log := &expansionLog{
			from:  map[uint64]cimp.System[*gcmodel.Local]{},
			eidxs: map[uint64][]int{},
			nodes: map[uint64]int{},
		}
		opt.Visitors = []Visitor{log}
		if fp, _ := OptionsFingerprint(m, invariant.Safety(), opt); fp != bare {
			t.Errorf("observing visitor changed the options fingerprint")
		}
		res := Run(m, invariant.Safety(), opt)
		if len(log.nodes) != res.States {
			t.Errorf("cap %d/%d: %d states reported, %d visited", opt.MaxStates, opt.MaxDepth, len(log.nodes), res.States)
		}
		edges := 0
		for h, got := range log.eidxs {
			edges += len(got)
			want := 0
			m.Successors(log.from[h], func(cimp.System[*gcmodel.Local], cimp.Event) { want++ })
			if len(got) != want {
				t.Fatalf("cap %d/%d: state %016x reported %d of its %d transitions", opt.MaxStates, opt.MaxDepth, h, len(got), want)
			}
			for i, e := range got {
				if e != i {
					t.Fatalf("state %016x: transition %d carries event index %d", h, i, e)
				}
			}
			if _, ok := log.nodes[h]; !ok {
				t.Fatalf("state %016x expanded but never reported", h)
			}
		}
		if edges != res.Transitions {
			t.Errorf("cap %d/%d: %d transitions reported, %d taken", opt.MaxStates, opt.MaxDepth, edges, res.Transitions)
		}
	}
}
