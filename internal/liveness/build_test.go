package liveness

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/explore"
	"repro/internal/gcmodel"
	"repro/internal/heap"
)

// refGraph is the graph as the map-based build spells it out: the
// arrays the graph keeps, and those it derives (event index, taken mask,
// enabled set, BFS parent) stored whole.
type refGraph struct {
	hash          []uint64
	bad           []uint32
	estart, eto   []int32
	eeidx, parent []int32
	etaken, en    []uint64
}

// buildRef is the sequential, map-based graph build: one (depth, hash)
// sort of the whole log, a map from hash to id, and every run's edges
// given their event indices explicitly. It is the reference the parallel
// build must reproduce array for array.
func (r *Recorder) buildRef() (*refGraph, error) {
	type edgeRec struct {
		from, to uint64
		code     uint8
		eidx     int32
	}
	var nodes []nodeRec
	var edges []edgeRec
	for _, l := range r.workerLogs() {
		if l == nil {
			continue
		}
		if l.broken != nil {
			return nil, l.broken
		}
		for _, c := range l.nodes.cs {
			nodes = append(nodes, c...)
		}
		j := 0
		for _, c := range l.runs.cs {
			for _, rn := range c {
				for k := range rn.deg {
					edges = append(edges, edgeRec{from: rn.from, to: l.to.cs[j/chunkLen][j%chunkLen], code: l.code.cs[j/chunkLen][j%chunkLen], eidx: k})
					j++
				}
			}
		}
	}
	slices.SortFunc(nodes, func(a, b nodeRec) int {
		if a.depth != b.depth {
			return cmp.Compare(a.depth, b.depth)
		}
		return cmp.Compare(a.hash, b.hash)
	})

	n := len(nodes)
	g := &refGraph{
		hash:   make([]uint64, n),
		bad:    make([]uint32, n),
		en:     make([]uint64, n),
		parent: make([]int32, n),
		estart: make([]int32, n+1),
		eto:    make([]int32, len(edges)),
		etaken: make([]uint64, len(edges)),
		eeidx:  make([]int32, len(edges)),
	}
	ids := make(map[uint64]int32, n)
	depth := make([]int32, n)
	for i, nd := range nodes {
		g.hash[i], g.bad[i], depth[i], g.parent[i] = nd.hash, nd.bad, nd.depth, -1
		ids[nd.hash] = int32(i)
	}

	// Out-degrees, then their prefix sums.
	for _, e := range edges {
		u, known := ids[e.from]
		if !known {
			return nil, partialLog(e.from, int(e.eidx))
		}
		g.estart[u+1]++
	}
	for u := 0; u < n; u++ {
		g.estart[u+1] += g.estart[u]
	}
	for j := range g.eto {
		g.eto[j] = -1
	}
	taken := r.ents.codes()
	// An expanded state's edges carry the event indices 0..deg-1, so an
	// edge's slot is its source's base plus its event index.
	pidx := make([]int32, n) // the parent edge's event index
	for _, e := range edges {
		u := ids[e.from]
		v, ok := ids[e.to]
		j := g.estart[u] + e.eidx
		if !ok || j >= g.estart[u+1] || g.eto[j] != -1 {
			return nil, partialLog(e.from, int(e.eidx))
		}
		g.eto[j], g.etaken[j], g.eeidx[j] = v, taken[e.code], e.eidx
		g.en[u] |= taken[e.code]
		if depth[u]+1 == depth[v] {
			if p := g.parent[v]; p < 0 || u < p || (u == p && e.eidx < pidx[v]) {
				g.parent[v], pidx[v] = u, e.eidx
			}
		}
	}
	return g, nil
}

// derived spells out g the way refGraph does, from the arrays it keeps.
func derived(g *graph) *refGraph {
	d := &refGraph{
		hash: g.hash, bad: g.bad, estart: g.estart, eto: g.eto,
		parent: g.parents(),
		en:     make([]uint64, len(g.hash)),
		eeidx:  make([]int32, len(g.eto)),
		etaken: make([]uint64, len(g.eto)),
	}
	for u := int32(0); u < int32(len(g.hash)); u++ {
		d.en[u] = g.enabled(u)
		lo, hi := g.outEdges(u)
		for j := lo; j < hi; j++ {
			d.eeidx[j], d.etaken[j] = j-lo, g.takenAt(j)
		}
	}
	return d
}

// recordedLog runs the engine over m with a recorder attached and
// returns the recorder with its log.
func recordedLog(t *testing.T, m *gcmodel.Model, eopt explore.Options) *Recorder {
	t.Helper()
	rec, err := NewRecorder(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	eopt.HashOnly = true
	eopt.Visitors = []explore.Visitor{rec}
	if run := explore.Run(m, nil, eopt); run.Err != nil {
		t.Fatal(run.Err)
	}
	return rec
}

// cloneLog copies a recorder's log, so that one recorded run can feed
// several builds (a build releases the log it reads).
func cloneLog(r *Recorder) *Recorder {
	c := &Recorder{m: r.m, props: r.props, ents: r.ents}
	for w, l := range r.workerLogs() {
		if l == nil {
			continue
		}
		cl := c.log(w)
		cl.broken = l.broken
		cl.nodes, cl.runs, cl.to, cl.code = cloneChunks(l.nodes), cloneChunks(l.runs), cloneChunks(l.to), cloneChunks(l.code)
	}
	return c
}

func cloneChunks[T any](c chunks[T]) chunks[T] {
	d := chunks[T]{n: c.n}
	for _, cs := range c.cs {
		d.cs = append(d.cs, slices.Clone(cs))
	}
	return d
}

// refArrays names every array of a refGraph, for field-by-field diffs.
func refArrays(g *refGraph) map[string]any {
	return map[string]any{
		"hash": g.hash, "bad": g.bad, "estart": g.estart, "eto": g.eto,
		"eeidx": g.eeidx, "etaken": g.etaken, "en": g.en, "parent": g.parent,
	}
}

// TestBuildMatchesReference: the parallel build keeps the reference
// build's hash, bad, estart and eto exactly, and derives its event
// indices, taken masks, enabled sets and BFS parents, at every goroutine
// count, on clean, violating and capped logs recorded by two workers (so
// the logs are split between workers in the engine's order, not a sorted
// one).
func TestBuildMatchesReference(t *testing.T) {
	cases := []struct {
		name     string
		drop     string
		maxState int
	}{
		{"clean", "", 0},
		{"mute-handshake", "mute_handshake", 0},
		{"no-dequeue", "no_dequeue", 0},
		{"capped", "", 500},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := buildTestConfig()
			if c.drop != "" {
				cfg.Drop = gcmodel.AblationDrop(c.drop, cfg.NMutators)
			}
			m, err := gcmodel.Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rec := recordedLog(t, m, explore.Options{Workers: 2, MaxStates: c.maxState})
			if len(rec.workerLogs()) != 2 {
				t.Fatalf("%d worker logs, want 2", len(rec.workerLogs()))
			}
			want, err := cloneLog(rec).buildRef()
			if err != nil {
				t.Fatal(err)
			}
			if len(want.hash) == 0 || len(want.eto) == 0 {
				t.Fatal("empty reference graph")
			}
			for _, procs := range []int{1, 2, 8} {
				got, err := cloneLog(rec).build(procs)
				if err != nil {
					t.Fatalf("procs=%d: %v", procs, err)
				}
				wa, ga := refArrays(want), refArrays(derived(got))
				for name := range wa {
					if !reflect.DeepEqual(ga[name], wa[name]) {
						t.Errorf("procs=%d: %s differs from the reference build", procs, name)
					}
				}
			}
		})
	}
}

// TestBuildRefusesPartialLog: a log that is not a full expansion of the
// states it records is refused, never turned into a graph. State a at
// depth 0 has one edge (event index 0) to state b at depth 1; each case
// logs the two states on worker 0, then its runs on the given workers.
func TestBuildRefusesPartialLog(t *testing.T) {
	const a, b = uint64(1) << 60, uint64(3) << 62
	type edge struct {
		worker   int
		from, to uint64
		eidx     int
	}
	for name, edges := range map[string][]edge{
		"clean":                             {{0, a, b, 0}},
		"run from unrecorded state":         {{0, a, b, 0}, {0, a + 1, b, 0}},
		"edge to unrecorded state":          {{0, a, b + 1, 0}},
		"one source in two runs, 1 worker":  {{0, a, b, 0}, {0, a, a, 0}},
		"one source in two runs, 2 workers": {{0, a, b, 0}, {1, a, b, 0}},
		"event index out of order":          {{0, a, b, 1}},
		"event index repeated":              {{0, a, b, 0}, {0, a, a, 1}, {0, a, b, 1}},
	} {
		for _, procs := range []int{1, 2} {
			r := &Recorder{ents: entities{nmut: 1}}
			r.log(0).nodes.add(nodeRec{hash: a})
			r.log(0).nodes.add(nodeRec{hash: b, depth: 1})
			for _, e := range edges {
				r.log(e.worker).edge(e.from, e.eidx, e.to, noneCode)
			}
			g, err := r.build(procs)
			switch {
			case name == "clean" && err != nil:
				t.Errorf("procs=%d: clean log refused: %v", procs, err)
			case name == "clean" && (len(g.eto) != 1 || g.parents()[1] != 0):
				t.Errorf("procs=%d: clean log built wrong: eto %v parents %v", procs, g.eto, g.parents())
			case name != "clean" && (err == nil || !strings.Contains(err.Error(), "edge log is not a full expansion")):
				t.Errorf("procs=%d: %s: got %v, want the log refused", procs, name, err)
			}
		}
	}

	// A log whose edge count is not the run's transition count: the run
	// took a transition the recorder did not see.
	r := &Recorder{ents: entities{nmut: 1}}
	r.log(0).nodes.add(nodeRec{hash: a})
	r.log(0).nodes.add(nodeRec{hash: b, depth: 1})
	r.log(0).edge(a, 0, b, noneCode)
	_, err := r.Result(explore.Result{States: 2, Transitions: 2, Depth: 1, Complete: true})
	if err == nil || !strings.Contains(err.Error(), "recorded 2 states and 1 transitions of a run that visited 2 and took 2") {
		t.Errorf("edge count short of Transitions: got %v, want the log refused", err)
	}
}

func TestParallelReportsLeastFailureAndPanics(t *testing.T) {
	err := parallel(2, 8, func(i int) error {
		if i >= 5 {
			return fmt.Errorf("failed at %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "failed at 5" {
		t.Errorf("got %v, want the least failing index's error", err)
	}
	err = parallel(2, 4, func(i int) error {
		if i == 2 {
			panic("boom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("got %v, want the panic as an error", err)
	}
}

// buildTestConfig is liveness_test.go's smallConfig: one mutator,
// stores only, tight budget and buffer bound.
func buildTestConfig() gcmodel.Config {
	return gcmodel.Config{
		NMutators: 1,
		NRefs:     2,
		NFields:   1,
		MaxBuf:    1,
		OpBudget:  1,
		InitObjects: map[heap.Ref][]heap.Ref{
			0: {1},
			1: {heap.NilRef},
		},
		InitRoots:      []heap.RefSet{heap.SetOf(0)},
		AllowNilStore:  true,
		DisableAlloc:   true,
		DisableLoad:    true,
		DisableDiscard: true,
	}
}
