package cimp_test

import (
	"bytes"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/cimp"
	"repro/internal/core"
	"repro/internal/gcmodel"
)

// diffConfigs is what the differential and persistence tests walk: the
// headline preset, the two-mutator preset, and tiny under each ablation
// switch (every switch changes the shape of some process's program).
func diffConfigs() map[string]core.ModelConfig {
	cfgs := map[string]core.ModelConfig{
		"tiny":        core.TinyConfig(),
		"two-mutator": core.TwoMutatorConfig(),
	}
	abl := reflect.TypeOf(core.Ablations{})
	for i := 0; i < abl.NumField(); i++ {
		var a core.Ablations
		reflect.ValueOf(&a).Elem().Field(i).SetBool(true)
		cfg := core.TinyConfig()
		a.Apply(&cfg)
		cfgs["tiny/"+a.String()] = cfg
	}
	return cfgs
}

// walk visits the states of m breadth-first, up to limit distinct states,
// following only the ample transition where reduce is set and the oracle
// nominates one (as package explore does).
func walk(m *gcmodel.Model, limit int, reduce bool, visit func(gcmodel.SysState)) {
	seen := map[uint64]bool{m.FingerprintHash(m.Initial()): true}
	layer := []gcmodel.SysState{m.Initial()}
	for n := 0; len(layer) > 0; {
		var next []gcmodel.SysState
		for _, st := range layer {
			if n++; n > limit {
				return
			}
			visit(st)
			var amp gcmodel.Ample
			if reduce {
				amp = m.AmpleChoice(st)
			}
			m.Successors(st, func(ns gcmodel.SysState, ev gcmodel.SysEvent) {
				if amp.OK && !amp.Matches(ev) {
					return
				}
				if h := m.FingerprintHash(ns); !seen[h] {
					seen[h] = true
					next = append(next, ns)
				}
			})
		}
		layer = next
	}
}

// TestCompiledEngineMatchesReferenceOnModel is the differential test of
// the table-driven engine against the reference definition kept in
// oracle_test.go, on the real programs: at every state reached, every
// process's compiled heads are the reference heads — same action, same
// continuation frames, same order — and System.Successors yields the
// reference successors: same events, same fingerprint bytes, same order.
func TestCompiledEngineMatchesReferenceOnModel(t *testing.T) {
	limit, ablLimit := 50_000, 6_000
	if testing.Short() || raceEnabled {
		limit, ablLimit = 4_000, 600
	}
	type step struct {
		fp []byte
		ev gcmodel.SysEvent
	}
	for name, cfg := range diffConfigs() {
		for _, reduce := range []bool{false, true} {
			if reduce && name != "two-mutator" {
				continue
			}
			max := limit
			if name != "tiny" && name != "two-mutator" {
				max = ablLimit
			}
			m, err := gcmodel.Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var heads []cimp.Head[*gcmodel.Local]
			var got, want []step
			states := 0
			walk(m, max, reduce, func(st gcmodel.SysState) {
				states++
				for p, proc := range st.Procs {
					heads = cimp.AppendHeads(heads[:0], proc.Stack, proc.Data)
					ref := cimp.RefHeads(proc.Stack, proc.Data)
					if len(heads) != len(ref) {
						t.Fatalf("%s: state %d proc %d: %d heads, want %d", name, states, p, len(heads), len(ref))
					}
					for i := range ref {
						if heads[i].Act != ref[i].Act || !cimp.SameFrames(heads[i].Cont(), ref[i].Cont) {
							t.Fatalf("%s: state %d proc %d head %d: (%q, %d frames), want (%q, %d frames)", name, states, p, i,
								heads[i].Act.Label(), len(heads[i].Cont()), ref[i].Act.Label(), len(ref[i].Cont))
						}
					}
					var wantSole *cimp.Request[*gcmodel.Local]
					if len(ref) == 1 {
						wantSole, _ = ref[0].Act.(*cimp.Request[*gcmodel.Local])
					}
					if sole, _ := cimp.SoleRequest(proc); sole != wantSole {
						t.Fatalf("%s: state %d proc %d: SoleRequest disagrees with the %d reference heads", name, states, p, len(ref))
					}
				}
				got, want = got[:0], want[:0]
				m.Successors(st, func(ns gcmodel.SysState, ev gcmodel.SysEvent) {
					got = append(got, step{m.AppendFingerprint(nil, ns), ev})
				})
				cimp.RefSuccessors(st, func(ns gcmodel.SysState, ev gcmodel.SysEvent) {
					want = append(want, step{m.AppendFingerprint(nil, ns), ev})
				})
				if len(got) != len(want) {
					t.Fatalf("%s: state %d: %d successors, want %d", name, states, len(got), len(want))
				}
				if st.Deadlocked() != (len(want) == 0) {
					t.Fatalf("%s: state %d: Deadlocked disagrees with the reference", name, states)
				}
				for i := range want {
					if !bytes.Equal(got[i].fp, want[i].fp) || !reflect.DeepEqual(got[i].ev, want[i].ev) {
						t.Fatalf("%s: state %d successor %d: event %+v, want %+v (fingerprints equal: %v)", name, states, i,
							got[i].ev, want[i].ev, bytes.Equal(got[i].fp, want[i].fp))
					}
				}
			})
			if states == 0 {
				t.Fatalf("%s: walked no states", name)
			}
		}
	}
}

// TestSuccessorsAllocationBudget pins the allocation cost of expanding one
// tiny state. The reference engine spent 193 allocations per state
// re-deriving heads; what is left is the model's own (state clones,
// request boxing) plus one process table per successor.
func TestSuccessorsAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	m, err := gcmodel.Build(core.TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	// A fixed sample: every 40th state of the first 20,000 in BFS order.
	var sample []gcmodel.SysState
	n := 0
	walk(m, 20_000, false, func(st gcmodel.SysState) {
		if n++; n%40 == 0 {
			sample = append(sample, st)
		}
	})
	yield := func(gcmodel.SysState, gcmodel.SysEvent) {}
	perRun := testing.AllocsPerRun(5, func() {
		for _, st := range sample {
			m.SuccessorsConcurrent(st, yield)
		}
	})
	perState := perRun / float64(len(sample))
	t.Logf("%.1f allocations per expanded state over %d states", perState, len(sample))
	if perState > 50 {
		t.Fatalf("SuccessorsConcurrent allocates %.1f objects per state, budget is 50", perState)
	}
}

// TestConcurrentSuccessorsLeaveParentsIntact is the persistence contract
// under the race detector: goroutines enumerate successors of states that
// share stacks, data and unfolding tables — each state is expanded by
// several goroutines at once, next to its own parent and siblings — and
// afterwards every state still fingerprints to the bytes it had before.
func TestConcurrentSuccessorsLeaveParentsIntact(t *testing.T) {
	for _, name := range []string{"tiny", "two-mutator"} {
		m, err := gcmodel.Build(diffConfigs()[name])
		if err != nil {
			t.Fatal(err)
		}
		// Parents and their children: maximal structural sharing.
		var states []gcmodel.SysState
		walk(m, 300, false, func(st gcmodel.SysState) {
			states = append(states, st)
			m.Successors(st, func(ns gcmodel.SysState, _ gcmodel.SysEvent) { states = append(states, ns) })
		})
		before := make([][]byte, len(states))
		for i, st := range states {
			before[i] = m.AppendFingerprint(nil, st)
		}
		workers := 2 * runtime.GOMAXPROCS(0)
		if workers < 4 {
			workers = 4
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var buf []byte
				for i := range states {
					st := states[(i+w*7)%len(states)]
					m.SuccessorsConcurrent(st, func(ns gcmodel.SysState, _ gcmodel.SysEvent) {
						buf = m.AppendFingerprint(buf[:0], ns)
					})
					m.AmpleChoice(st)
				}
			}(w)
		}
		wg.Wait()
		for i, st := range states {
			if !bytes.Equal(m.AppendFingerprint(nil, st), before[i]) {
				t.Fatalf("%s: state %d changed under concurrent successor enumeration", name, i)
			}
		}
	}
}
