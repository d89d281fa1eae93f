package explore

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/gcmodel"
	"repro/internal/invariant"
)

// tinyStripes makes every visited table built during the test start its
// stripes at n slots.
func tinyStripes(t *testing.T, n int) {
	t.Helper()
	old := stripeSlots
	stripeSlots = n
	t.Cleanup(func() { stripeSlots = old })
}

// keysInStripe returns n distinct nonzero hashes that all select stripe i
// of v, spread over the stripe's slot range.
func keysInStripe(v *visited, i uint64, n int, rng *rand.Rand) []uint64 {
	seen := map[uint64]bool{}
	var out []uint64
	for len(out) < n {
		h := rng.Uint64()
		if v.shift < 64 {
			h = h>>(64-v.shift) | i<<v.shift
		}
		if h != 0 && !seen[h] {
			seen[h] = true
			out = append(out, h)
		}
	}
	return out
}

func recOf(h uint64) rec { return rec{parent: h ^ 0xabcdef, eidx: int32(h % 1000)} }

func TestTableInsertLookupDuplicate(t *testing.T) {
	v := newVisited(8)
	in := v.inserter()
	rng := rand.New(rand.NewSource(1))
	var keys []uint64
	for i := uint64(0); i < 8; i++ {
		keys = append(keys, keysInStripe(v, i, 40, rng)...)
	}
	for _, h := range keys {
		if !v.insert(in, h, recOf(h)) {
			t.Fatalf("first insert of %016x reported a duplicate", h)
		}
	}
	for _, h := range keys {
		if v.insert(in, h, rec{parent: 1, eidx: 1}) {
			t.Fatalf("second insert of %016x reported a new key", h)
		}
	}
	v.settle([]*inserter{in}, 0)
	for _, h := range keys {
		if r, ok := v.lookup(h); !ok || r != recOf(h) {
			t.Fatalf("lookup(%016x) = %+v, %v; want the first insert's record", h, r, ok)
		}
	}
	if _, ok := v.lookup(12345); ok {
		t.Fatal("lookup found a key that was never inserted")
	}
	if got, want := v.bytes(), int64(len(keys))*recBytes; got != want {
		t.Fatalf("bytes() = %d, want %d (%d keys at %d B)", got, want, len(keys), recBytes)
	}
}

// TestTableZeroKey: hash 0 is a legal key although 0 marks an empty slot.
func TestTableZeroKey(t *testing.T) {
	v := newVisited(4)
	in := v.inserter()
	if _, ok := v.lookup(0); ok {
		t.Fatal("empty table holds key 0")
	}
	r := rec{parent: 77, eidx: 3}
	if !v.insert(in, 0, r) {
		t.Fatal("first insert of key 0 reported a duplicate")
	}
	if v.insert(in, 0, rec{}) {
		t.Fatal("second insert of key 0 reported a new key")
	}
	v.settle([]*inserter{in}, 0)
	if got, ok := v.lookup(0); !ok || got != r {
		t.Fatalf("lookup(0) = %+v, %v", got, ok)
	}
	if ents := v.entries(0); len(ents) != 1 || ents[0] != (entry{0, r}) {
		t.Fatalf("stripe 0 entries = %+v, want key 0 alone", ents)
	}
	if v.bytes() != recBytes {
		t.Fatalf("bytes() = %d with one key", v.bytes())
	}
	// A restored table takes it back like any other key.
	v2 := newVisited(4)
	in2 := v2.inserter()
	for _, e := range v.entries(0) {
		if !v2.insert(in2, e.hash, e.rec) {
			t.Fatal("restoring key 0 reported a duplicate")
		}
	}
	if got, ok := v2.lookup(0); !ok || got != r {
		t.Fatalf("restored lookup(0) = %+v, %v", got, ok)
	}
}

// TestTableGrowthPreservesRecords fills a table far past its initial
// capacity, settling as a search would, and requires every (key, parent,
// event index) back, in hash order, with the load inside the band.
func TestTableGrowthPreservesRecords(t *testing.T) {
	tinyStripes(t, 16)
	v := newVisited(4)
	in := v.inserter()
	rng := rand.New(rand.NewSource(2))
	want := map[uint64]rec{}
	const batch = 24
	for round := 0; round < 200; round++ {
		for i := 0; i < batch; i++ {
			h := rng.Uint64()
			if _, dup := want[h]; dup || h == 0 {
				continue
			}
			want[h] = recOf(h)
			if !v.insert(in, h, recOf(h)) {
				t.Fatalf("round %d: %016x reported a duplicate", round, h)
			}
		}
		v.settle([]*inserter{in}, batch/layerFanout)
	}
	st := v.stats()
	if st.Grows == 0 {
		t.Fatal("the table never grew")
	}
	if st.Overflows != 0 {
		t.Fatalf("%d keys overflowed although every batch was announced", st.Overflows)
	}
	if st.Load < 0.4 || st.Load > maxLoad {
		t.Fatalf("load %.2f outside the band after %d rebuilds", st.Load, st.Grows)
	}
	n := 0
	for i := range v.stripes {
		ents := v.entries(i)
		for j, e := range ents {
			if j > 0 && ents[j-1].hash >= e.hash {
				t.Fatalf("stripe %d entries out of order at %d", i, j)
			}
			if want[e.hash] != e.rec {
				t.Fatalf("stripe %d: %016x carries %+v, want %+v", i, e.hash, e.rec, want[e.hash])
			}
			if int(e.hash>>v.shift) != i {
				t.Fatalf("stripe %d holds %016x", i, e.hash)
			}
		}
		n += len(ents)
	}
	if n != len(want) {
		t.Fatalf("%d entries after growth, inserted %d", n, len(want))
	}
	for h, r := range want {
		if got, ok := v.lookup(h); !ok || got != r {
			t.Fatalf("lookup(%016x) = %+v, %v after growth", h, got, ok)
		}
	}
}

// TestTableProbeWraps: keys that start in the last slots of a stripe whose
// capacity is not a power of two continue at slot 0.
func TestTableProbeWraps(t *testing.T) {
	tinyStripes(t, 13)
	v := newVisited(1)
	in := v.inserter()
	// The largest hashes start at the last slot.
	var keys []uint64
	for i := uint64(0); i < 5; i++ {
		keys = append(keys, ^uint64(0)-i)
	}
	for _, h := range keys {
		if got := v.start(h, 13); got != 12 {
			t.Fatalf("start(%016x) = %d, want the last slot", h, got)
		}
		if !v.insert(in, h, recOf(h)) {
			t.Fatalf("%016x reported a duplicate", h)
		}
	}
	s := &v.stripes[0]
	if *s.slot(12) != keys[0] {
		t.Fatalf("slot 12 holds %016x", *s.slot(12))
	}
	for i, h := range keys[1:] {
		if *s.slot(i) != h {
			t.Fatalf("slot %d holds %016x, want the wrapped key %016x", i, *s.slot(i), h)
		}
	}
	for _, h := range keys {
		if v.insert(in, h, rec{}) {
			t.Fatalf("%016x inserted twice across the wrap", h)
		}
		if r, ok := v.lookup(h); !ok || r != recOf(h) {
			t.Fatalf("lookup(%016x) = %+v, %v across the wrap", h, r, ok)
		}
	}
	if len(s.over) != 0 {
		t.Fatal("a wrapping probe went to the overflow set")
	}
}

// TestTableOverflow fills 16-slot stripes past their capacity without a
// barrier in between: nothing may be lost, duplicated or spin, and the
// next barrier merges the overflow sets into stripes that hold everything.
func TestTableOverflow(t *testing.T) {
	tinyStripes(t, 16)
	v := newVisited(2)
	in := v.inserter()
	rng := rand.New(rand.NewSource(3))
	keys := append(keysInStripe(v, 0, 100, rng), keysInStripe(v, 1, 7, rng)...)
	for _, h := range keys {
		if !v.insert(in, h, recOf(h)) {
			t.Fatalf("%016x lost: reported as a duplicate", h)
		}
	}
	if got := len(v.stripes[0].over); got != 100-16 {
		t.Fatalf("overflow set holds %d keys, want %d", got, 100-16)
	}
	if len(v.stripes[1].over) != 0 {
		t.Fatalf("a stripe under its limit overflowed")
	}
	for _, h := range keys {
		if v.insert(in, h, rec{}) {
			t.Fatalf("%016x inserted twice", h)
		}
		if r, ok := v.lookup(h); !ok || r != recOf(h) {
			t.Fatalf("lookup(%016x) = %+v, %v before the merge", h, r, ok)
		}
	}
	if got := len(v.entries(0)); got != 100 {
		t.Fatalf("snapshot of an overflowing stripe has %d entries", got)
	}
	v.settle([]*inserter{in}, 0)
	if st := v.stats(); st.Overflows != 100-16 || st.Grows == 0 {
		t.Fatalf("stats after the merge: %+v", st)
	}
	if v.stripes[0].over != nil || v.stripes[0].slots < 100 {
		t.Fatalf("overflow not merged: %d slots, %d still over", v.stripes[0].slots, len(v.stripes[0].over))
	}
	for _, h := range keys {
		if r, ok := v.lookup(h); !ok || r != recOf(h) {
			t.Fatalf("lookup(%016x) = %+v, %v after the merge", h, r, ok)
		}
		if v.insert(in, h, rec{}) {
			t.Fatalf("%016x inserted again after the merge", h)
		}
	}
}

// TestTableConcurrentClaims: four goroutines insert overlapping key sets —
// through the lock-free claim and the overflow path — and every key must
// have exactly one winner, whose record is the one kept.
func TestTableConcurrentClaims(t *testing.T) {
	for _, c := range []struct {
		name   string
		slots  int
		settle bool
	}{
		{"claim", 1 << 12, true},
		{"overflow", 16, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			tinyStripes(t, c.slots)
			v := newVisited(4)
			rng := rand.New(rand.NewSource(4))
			keys := []uint64{0}
			for i := uint64(0); i < 4; i++ {
				keys = append(keys, keysInStripe(v, i, 500, rng)...)
			}
			const workers = 4
			wins := make([]atomic.Int32, len(keys))
			ins := make([]*inserter, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				ins[w] = v.inserter()
				wg.Add(1)
				go func() {
					defer wg.Done()
					// Each worker walks three quarters of the keys from its
					// own offset, so every key is wanted by three of them.
					for j := 0; j < len(keys)*3/4; j++ {
						i := (j + w*len(keys)/4) % len(keys)
						h := keys[i]
						if v.insert(ins[w], h, rec{parent: h, eidx: int32(w)}) {
							wins[i].Add(1)
						}
					}
				}()
			}
			wg.Wait()
			if c.settle {
				v.settle(ins, 0)
			}
			for i, h := range keys {
				if n := wins[i].Load(); n != 1 {
					t.Fatalf("key %016x has %d winners", h, n)
				}
				if r, ok := v.lookup(h); !ok || r.parent != h || r.eidx < 0 || r.eidx >= workers {
					t.Fatalf("lookup(%016x) = %+v, %v", h, r, ok)
				}
			}
			if c.settle {
				if got, want := v.bytes(), int64(len(keys))*recBytes; got != want {
					t.Fatalf("bytes() = %d, want %d", got, want)
				}
			}
		})
	}
}

// TestVisitedGrowsEveryLayer runs the engine on stripes that start at 16
// slots, so that some stripe is rebuilt at nearly every barrier: states, transitions, depth, deadlocks, visited bytes and the
// violation found (invariant, depth, state, trace length — and with one
// worker, where the parent of every state is determined, the whole replayed
// trace) must not depend on the worker count, nor differ from a run on
// ordinary stripes.
func TestVisitedGrowsEveryLayer(t *testing.T) {
	safe := mustBuild(t, safeCfg())
	bad := baseCfg()
	bad.Drop = gcmodel.AblationDrop("no_deletion_barrier", bad.NMutators)
	unsafe := mustBuild(t, bad)

	type outcome struct {
		v     verdict
		state string
		steps int
		trace string // one worker only
	}
	run := func(m *gcmodel.Model, workers int) (outcome, TableStats) {
		res := Run(m, invariant.All(), Options{Trace: true, HashOnly: true, Workers: workers, Shards: 4})
		o := outcome{v: verdictOf(res)}
		if v := res.Violation; v != nil {
			o.state, o.steps = m.Fingerprint(v.State), len(v.Trace)
			for _, s := range v.Trace {
				if workers == 1 {
					o.trace += fmt.Sprintf("%d>%d %s/%s;%s\n", s.Ev.Proc, s.Ev.Peer, s.Ev.Label, s.Ev.PeerLabel, m.Fingerprint(s.State))
				}
			}
		}
		return o, res.Table
	}
	for name, m := range map[string]*gcmodel.Model{"safe": safe, "violating": unsafe} {
		want, _ := run(m, 1)
		if (name == "violating") != (want.v.violation != "") {
			t.Fatalf("%s: violation %q", name, want.v.violation)
		}
		t.Run(name, func(t *testing.T) {
			tinyStripes(t, 16)
			for _, workers := range []int{1, 2, 4} {
				got, table := run(m, workers)
				if workers > 1 {
					got.trace = want.trace
				}
				if got != want {
					t.Fatalf("workers=%d on 16-slot stripes:\n got %+v\nwant %+v", workers, got.v, want.v)
				}
				if table.Grows < 40 {
					t.Fatalf("workers=%d: only %d rebuilds of 4 stripes that started at 16 slots", workers, table.Grows)
				}
				t.Logf("workers=%d: %+v", workers, table)
			}
		})
	}
}

// TestVisitedEdgeViolationOwnsItsState: Edge.To is the worker's scratch
// table, but the violation reported when an Edge visitor fails must keep a
// state of its own — one whose fingerprint still hashes to the ToHash the
// visitor saw, long after the scratch has been overwritten.
func TestVisitedEdgeViolationOwnsItsState(t *testing.T) {
	m := mustBuild(t, safeCfg())
	var n atomic.Int64
	var mu sync.Mutex
	failed := map[uint64]bool{}
	res := Run(m, nil, Options{HashOnly: true, Workers: 2, Visitors: []Visitor{edgeFunc(func(e Edge) error {
		if h := gcmodel.Hash64(m.AppendFingerprint(nil, e.To)); h != e.ToHash {
			return fmt.Errorf("borrowed successor hashes to %016x, ToHash is %016x", h, e.ToHash)
		}
		if n.Add(1) >= 3000 {
			mu.Lock()
			failed[e.ToHash] = true
			mu.Unlock()
			return errors.New("edge refused")
		}
		return nil
	})}})
	v := res.Violation
	if v == nil || v.Invariant != "event-check" || v.Err.Error() != "edge refused" {
		t.Fatalf("violation = %+v", v)
	}
	h := gcmodel.Hash64(m.AppendFingerprint(nil, v.State))
	if !failed[h] {
		t.Fatalf("the reported state hashes to %016x, which no failing edge led to: the scratch table was aliased", h)
	}
}

// TestEdgeViolationTrace: a refused transition's counterexample is the
// path to its source state followed by the transition itself, even when
// the search never inserts the state it leads to. At every worker count
// the trace replays to the reported state, and its last step is the
// refused one.
func TestEdgeViolationTrace(t *testing.T) {
	m := mustBuild(t, safeCfg())
	const refused = "sys-dequeue-write-buffer"
	for _, workers := range []int{1, 2, 4} {
		res := Run(m, nil, Options{Trace: true, HashOnly: true, Workers: workers, Visitors: []Visitor{edgeFunc(func(e Edge) error {
			if e.Ev.Label == refused {
				return errors.New("edge refused")
			}
			return nil
		})}})
		v := res.Violation
		if v == nil || v.Invariant != "event-check" || res.Err != nil {
			t.Fatalf("workers=%d: violation %+v, err %v", workers, v, res.Err)
		}
		if len(v.Trace) != v.Depth || v.Trace[len(v.Trace)-1].Ev.Label != refused {
			t.Fatalf("workers=%d: %d-step trace at depth %d", workers, len(v.Trace), v.Depth)
		}
		if last := v.Trace[len(v.Trace)-1].State; m.FingerprintHash(last) != m.FingerprintHash(v.State) {
			t.Fatalf("workers=%d: the trace ends at a state other than the reported one", workers)
		}
	}
}

// TestVisitedHashMatchesFingerprint: the hash folded from the borrowed
// successor's cached segments is Hash64 of its canonical bytes, for every
// transition — duplicates included — of a 50,000-state prefix, with and
// without the reduction, on a configuration table small enough to retire
// (retired tables leave configurations that are hashed by encoding them).
func TestVisitedHashMatchesFingerprint(t *testing.T) {
	for _, reduce := range []bool{false, true} {
		m := mustBuild(t, baseCfg())
		var edges atomic.Int64
		res := Run(m, nil, Options{HashOnly: true, Reduce: reduce, MaxStates: 50_000, Workers: 2,
			Visitors: []Visitor{edgeFunc(func(e Edge) error {
				edges.Add(1)
				if h := gcmodel.Hash64(m.AppendFingerprint(nil, e.To)); h != e.ToHash {
					return fmt.Errorf("ToHash %016x, Hash64(AppendFingerprint) %016x", e.ToHash, h)
				}
				return nil
			})}})
		if res.Violation != nil {
			t.Fatalf("reduce=%v: %v", reduce, res.Violation)
		}
		if res.States < 50_000 || edges.Load() != int64(res.Transitions) {
			t.Fatalf("reduce=%v: %d states, %d edges seen of %d", reduce, res.States, edges.Load(), res.Transitions)
		}
	}
}

// TestVisitedAllocsPerTransition pins the hot loop's allocation budget: a
// transition into a visited state allocates nothing, and a new state costs
// its process table plus the amortised growth of the buffers it lands in.
func TestVisitedAllocsPerTransition(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	m := mustBuild(t, safeCfg())
	// One stripe: the table's own growth is then a few dozen allocations.
	opt := Options{Trace: true, HashOnly: true, Workers: 1, Shards: 1}

	// Duplicates: expand the initial state twice; the second time every
	// successor is visited and every table lookup a hit.
	e := newExplorer(m, m.Initial(), invariant.All(), opt)
	cur := qent{state: e.init, hash: m.FingerprintHash(e.init)}
	w := e.ws[0]
	if out, _ := e.expandState(w, cur, 1, gcmodel.Ample{}); out == 0 || w.states == 0 {
		t.Fatalf("initial state has %d successors, %d new", out, w.states)
	}
	w.states = 0
	if n := testing.AllocsPerRun(200, func() { e.expandState(w, cur, 1, gcmodel.Ample{}) }); n != 0 {
		t.Errorf("re-expanding a state whose successors are all visited allocates %.1f times", n)
	}
	if w.states != 0 {
		t.Fatalf("%d new states on re-expansion", w.states)
	}

	// New states: a whole run on a warm configuration table.
	Run(m, invariant.All(), opt)
	var res Result
	n := testing.AllocsPerRun(1, func() { res = Run(m, invariant.All(), opt) })
	perState := n / float64(res.States)
	t.Logf("%.0f allocations for %d states, %d transitions: %.3f per new state", n, res.States, res.Transitions, perState)
	if perState > 1.1 {
		t.Errorf("%.3f allocations per new state, want the process-table clone plus amortised growth (<= 1.1)", perState)
	}
}
