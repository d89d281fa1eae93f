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

// buildRef is the sequential, map-based graph build: one (depth, hash)
// sort of the whole log and a map from hash to id. It is the reference
// the parallel build must reproduce array for array.
func (r *Recorder) buildRef() (*graph, error) {
	n, nedges := 0, 0
	for i := range r.stripes {
		n += len(r.stripes[i].nodes)
		nedges += len(r.stripes[i].edges)
	}
	nodes := make([]nodeRec, 0, n)
	for i := range r.stripes {
		nodes = append(nodes, r.stripes[i].nodes...)
		r.stripes[i].nodes = nil
	}
	slices.SortFunc(nodes, func(a, b nodeRec) int {
		if a.depth != b.depth {
			return cmp.Compare(a.depth, b.depth)
		}
		return cmp.Compare(a.hash, b.hash)
	})

	g := &graph{
		m: r.m, ents: r.ents,
		hash:   make([]uint64, n),
		bad:    make([]uint32, n),
		en:     make([]uint64, n),
		parent: make([]int32, n),
		peidx:  make([]int32, n),
		depth:  make([]int32, n),
		estart: make([]int32, n+1),
		eto:    make([]int32, nedges),
		etaken: make([]uint64, nedges),
		eeidx:  make([]int32, nedges),
	}
	ids := make(map[uint64]int32, n)
	for i, nd := range nodes {
		g.hash[i], g.bad[i], g.depth[i] = nd.hash, nd.bad, nd.depth
		g.parent[i], g.peidx[i] = -1, -1
		ids[nd.hash] = int32(i)
	}
	nodes = nil

	// Out-degrees, then their prefix sums.
	for i := range r.stripes {
		for _, e := range r.stripes[i].edges {
			g.estart[ids[e.from]+1]++
		}
	}
	for u := 0; u < n; u++ {
		g.estart[u+1] += g.estart[u]
	}
	for j := range g.eto {
		g.eto[j] = -1
	}
	// An expanded state's edges carry the event indices 0..deg-1, so an
	// edge's slot is its source's base plus its event index.
	for i := range r.stripes {
		s := &r.stripes[i]
		for _, e := range s.edges {
			u, known := ids[e.from]
			v, ok := ids[e.to]
			j := g.estart[u] + e.eidx
			if !known || !ok || j >= g.estart[u+1] || g.eto[j] != -1 {
				return nil, fmt.Errorf("liveness: edge log is not a full expansion (state %016x, event index %d)", e.from, e.eidx)
			}
			g.eto[j], g.etaken[j], g.eeidx[j] = v, e.taken, e.eidx
			g.en[u] |= e.taken
			if g.depth[u]+1 == g.depth[v] {
				if p := g.parent[v]; p < 0 || u < p || (u == p && e.eidx < g.peidx[v]) {
					g.parent[v], g.peidx[v] = u, e.eidx
				}
			}
		}
		s.edges = nil
	}
	return g, nil
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
	for i := range r.stripes {
		c.stripes[i].nodes = slices.Clone(r.stripes[i].nodes)
		c.stripes[i].edges = slices.Clone(r.stripes[i].edges)
	}
	return c
}

// graphArrays names every array of a graph, for field-by-field diffs.
func graphArrays(g *graph) map[string]any {
	return map[string]any{
		"hash": g.hash, "bad": g.bad, "en": g.en, "parent": g.parent, "peidx": g.peidx,
		"depth": g.depth, "estart": g.estart, "eto": g.eto, "etaken": g.etaken, "eeidx": g.eeidx,
	}
}

// TestBuildMatchesReference: the parallel build gives the reference
// build's arrays exactly, at every goroutine count, on clean, violating
// and capped logs recorded by two workers (so the log order is the
// engine's, not a sorted one).
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
				wa, ga := graphArrays(want), graphArrays(got)
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
// depth 0 has one edge (event index 0) to state b at depth 1.
func TestBuildRefusesPartialLog(t *testing.T) {
	const a, b = uint64(1) << 60, uint64(3) << 62
	nodes := []nodeRec{{hash: a}, {hash: b, depth: 1}}
	for name, edges := range map[string][]edgeRec{
		"clean":                    {{from: a, to: b}},
		"edge to unrecorded state": {{from: a, to: b + 1}},
		"edge from unrecorded":     {{from: a, to: b}, {from: a + 1, to: b}},
		"duplicated event index":   {{from: a, to: b}, {from: a, to: a}},
		"event index past degree":  {{from: a, to: b, eidx: 1}},
		"negative event index":     {{from: a, to: b, eidx: -1}},
		"edge in another stripe":   {{from: a, to: b}},
	} {
		for _, procs := range []int{1, 2} {
			r := &Recorder{ents: entities{nmut: 1}}
			for _, n := range nodes {
				s := &r.stripes[n.hash>>logShift]
				s.nodes = append(s.nodes, n)
			}
			for _, e := range edges {
				stripe := e.from >> logShift
				if name == "edge in another stripe" {
					stripe++ // two goroutines could then write a's degree
				}
				r.stripes[stripe].edges = append(r.stripes[stripe].edges, e)
			}
			g, err := r.build(procs)
			switch {
			case name == "clean" && err != nil:
				t.Errorf("procs=%d: clean log refused: %v", procs, err)
			case name == "clean" && (len(g.eto) != 1 || g.parent[1] != 0):
				t.Errorf("procs=%d: clean log built wrong: eto %v parent %v", procs, g.eto, g.parent)
			case name != "clean" && (err == nil || !strings.Contains(err.Error(), "edge log is not a full expansion")):
				t.Errorf("procs=%d: %s: got %v, want the log refused", procs, name, err)
			}
		}
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
