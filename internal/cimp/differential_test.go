package cimp_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/cimp"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/gcmodel"
	"repro/internal/invariant"
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
// Every model is walked twice: the first pass fills the configuration
// table as it goes (each step relation computed, then stored), the second
// finds it warm (each one read back).
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
			for _, pass := range []string{"cold", "warm"} {
				name := name + " " + pass
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
						if sole, _, _ := cimp.SoleRequest(proc); sole != wantSole {
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
}

// TestSuccessorsAllocationBudget pins the allocation cost of expanding a
// state whose configurations the table already holds: one process table
// per successor and nothing else — no state clones, no boxed requests, no
// reply slices. The budget leaves one more per transition for slack.
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
	transitions := 0
	yield := func(gcmodel.SysState, gcmodel.SysEvent) { transitions++ }
	for _, st := range sample {
		m.SuccessorsConcurrent(st, yield) // the walk expanded them already; make sure
	}
	perRun := float64(transitions)
	allocs := testing.AllocsPerRun(5, func() {
		for _, st := range sample {
			m.SuccessorsConcurrent(st, yield)
		}
	})
	t.Logf("%.2f allocations per transition, %.1f per expanded state, over %d states", allocs/perRun, allocs/float64(len(sample)), len(sample))
	if allocs > 2*perRun {
		t.Fatalf("SuccessorsConcurrent allocates %.2f objects per transition on warm states, budget is 2", allocs/perRun)
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

// digest folds one state's successor enumeration — every event and every
// successor's fingerprint, in order — into a hash.
func digest(m *gcmodel.Model, st gcmodel.SysState, buf []byte) (uint64, []byte) {
	h := fnv.New64a()
	m.Successors(st, func(ns gcmodel.SysState, ev gcmodel.SysEvent) {
		buf = m.AppendFingerprint(buf[:0], ns)
		h.Write(buf)
		fmt.Fprintf(h, "|%d %d %q %q %v %v;", ev.Proc, ev.Peer, ev.Label, ev.PeerLabel, ev.Alpha, ev.Beta)
	})
	return h.Sum64(), buf
}

// definingFingerprint is the canonical fingerprint by its definition: per
// process, the frame stack then the data state, no cached segment.
func definingFingerprint(m *gcmodel.Model, st gcmodel.SysState) []byte {
	var b []byte
	for _, p := range st.Procs {
		b = p.Data.AppendFingerprint(m.Index.AppendStack(b, p.Stack))
	}
	return b
}

// TestColdAndWarmEnumerationsAgree: walking a model's first 50,000 states
// twice — the table empty, then filled — yields the same (event, successor
// fingerprint) sequence at every state, so event indices, replay and the
// reduction's filter see one relation; and the fingerprint of every
// engine-produced state, spliced from cached segments, is byte for byte
// the defining encoding and the encoding of its decoded copy (which
// carries no ids).
func TestColdAndWarmEnumerationsAgree(t *testing.T) {
	limit := 50_000
	if testing.Short() || raceEnabled {
		limit = 4_000
	}
	for _, tc := range []struct {
		name   string
		reduce bool
	}{{"tiny", false}, {"two-mutator", true}} {
		m, err := gcmodel.Build(diffConfigs()[tc.name])
		if err != nil {
			t.Fatal(err)
		}
		var passes [2][]uint64
		var buf []byte
		for pass := range passes {
			walk(m, limit, tc.reduce, func(st gcmodel.SysState) {
				var d uint64
				d, buf = digest(m, st, buf)
				passes[pass] = append(passes[pass], d)
				if pass == 1 {
					return
				}
				fp := m.AppendFingerprint(nil, st)
				if want := definingFingerprint(m, st); !bytes.Equal(fp, want) {
					t.Fatalf("%s: state %d: fingerprint %x, defining encoding %x", tc.name, len(passes[0]), fp, want)
				}
				dec, rest, err := m.DecodeState(m.EncodeState(nil, st))
				if err != nil || len(rest) != 0 {
					t.Fatalf("%s: state %d does not round-trip: %v (%d bytes left)", tc.name, len(passes[0]), err, len(rest))
				}
				if got := m.AppendFingerprint(nil, dec); !bytes.Equal(got, fp) {
					t.Fatalf("%s: state %d: decoded copy fingerprints to %x, the original to %x", tc.name, len(passes[0]), got, fp)
				}
			})
		}
		if len(passes[0]) < limit/2 || len(passes[0]) != len(passes[1]) {
			t.Fatalf("%s: walked %d states cold and %d warm", tc.name, len(passes[0]), len(passes[1]))
		}
		for i := range passes[0] {
			if passes[0][i] != passes[1][i] {
				t.Fatalf("%s: state %d enumerates differently once the table is warm", tc.name, i)
			}
		}
		if s := m.Index.MemoStats(); s.StepHits == 0 || s.ReplyHits == 0 || s.ContHits == 0 {
			t.Fatalf("%s: the second pass never hit the table: %+v", tc.name, s)
		}
	}
}

// TestConcurrentExpansionsFillOneTable: four goroutines expand
// overlapping stretches of one frontier on a cold model, so they race to
// intern the same configurations and to fill the same records' tables —
// with the default bound, and with one so small that tables retire under
// their feet — and each must see exactly the enumeration a sequential
// walk of another instance of the model saw. Run under -race in CI.
func TestConcurrentExpansionsFillOneTable(t *testing.T) {
	for _, name := range []string{"tiny", "two-mutator"} {
		ref, err := gcmodel.Build(diffConfigs()[name])
		if err != nil {
			t.Fatal(err)
		}
		var encoded [][]byte
		var want []uint64
		var buf []byte
		walk(ref, 1_500, false, func(st gcmodel.SysState) {
			encoded = append(encoded, ref.EncodeState(nil, st))
			var d uint64
			d, buf = digest(ref, st, buf)
			want = append(want, d)
		})
		for _, bound := range []uint32{0, 48} {
			m, err := gcmodel.Build(diffConfigs()[name])
			if err != nil {
				t.Fatal(err)
			}
			if bound > 0 {
				cimp.SetMemoBound(m.Index, bound, bound)
			}
			states := make([]gcmodel.SysState, len(encoded))
			for i, enc := range encoded {
				if states[i], _, err = m.DecodeState(enc); err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					var buf []byte
					// Goroutine w starts a quarter of the way further in and
					// wraps: every state is expanded by all four.
					for k := range states {
						i := (k + w*len(states)/4) % len(states)
						var d uint64
						if d, buf = digest(m, states[i], buf); d != want[i] {
							t.Errorf("%s bound %d: goroutine %d: state %d enumerates differently from the sequential reference", name, bound, w, i)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			if s := m.Index.MemoStats(); bound > 0 && s.Retired == 0 {
				t.Fatalf("%s: a bound of %d configurations never retired a table: %+v", name, bound, s)
			}
		}
	}
}

// TestStaleConfigIDNeverHits: an engine-produced Config carries the id of
// its table record; copying it and replacing Data (or Stack) must not
// resolve to the old record. The edited state has to step and fingerprint
// as the reference says its new contents do.
func TestStaleConfigIDNeverHits(t *testing.T) {
	m, err := gcmodel.Build(core.TwoMutatorConfig())
	if err != nil {
		t.Fatal(err)
	}
	var states []gcmodel.SysState
	walk(m, 400, false, func(st gcmodel.SysState) { states = append(states, st) })
	edited := 0
	for _, st := range states[1:] {
		// Mutator 0 with mutator 1's data (and the other way round) under
		// their own stacks and ids: different roots, registers, budgets.
		ed := st.CloneShallow()
		a, b := ed.Procs[1], ed.Procs[2]
		if bytes.Equal(a.Data.AppendFingerprint(nil), b.Data.AppendFingerprint(nil)) {
			continue
		}
		a.Data, b.Data = b.Data.Clone(), a.Data.Clone()
		a.Data.Self, b.Data.Self = b.Data.Self, a.Data.Self
		ed.Procs[1], ed.Procs[2] = a, b
		edited++

		if got, want := m.AppendFingerprint(nil, ed), definingFingerprint(m, ed); !bytes.Equal(got, want) {
			t.Fatalf("edited state fingerprints through a stale id: %x, want %x", got, want)
		}
		type step struct {
			fp []byte
			ev gcmodel.SysEvent
		}
		var got, want []step
		m.Successors(ed, func(ns gcmodel.SysState, ev gcmodel.SysEvent) {
			got = append(got, step{definingFingerprint(m, ns), ev})
		})
		cimp.RefSuccessors(ed, func(ns gcmodel.SysState, ev gcmodel.SysEvent) {
			want = append(want, step{definingFingerprint(m, ns), ev})
		})
		if len(got) != len(want) {
			t.Fatalf("edited state: %d successors, the reference has %d", len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i].fp, want[i].fp) || !reflect.DeepEqual(got[i].ev, want[i].ev) {
				t.Fatalf("edited state: successor %d is %+v, the reference has %+v", i, got[i].ev, want[i].ev)
			}
		}
		for p := range ed.Procs {
			sole, alpha, ok := cimp.SoleRequest(ed.Procs[p])
			hs := cimp.RefHeads(ed.Procs[p].Stack, ed.Procs[p].Data)
			var wantSole *cimp.Request[*gcmodel.Local]
			if len(hs) == 1 {
				wantSole, _ = hs[0].Act.(*cimp.Request[*gcmodel.Local])
			}
			if sole != wantSole || (ok && alpha != wantSole.Act(ed.Procs[p].Data)) {
				t.Fatalf("edited state proc %d: SoleRequest answered from a stale id", p)
			}
		}
	}
	if edited < 100 {
		t.Fatalf("only %d states could be edited; the test is vacuous", edited)
	}
}

// TestTinyTableBoundSameAnswer: with tables that retire every 32
// configurations — every few states — a depth-capped run of the headline
// model counts exactly what it counts with the normal bound. Nothing may
// depend on a hit.
func TestTinyTableBoundSameAnswer(t *testing.T) {
	depth := 60
	if testing.Short() || raceEnabled {
		depth = 30
	}
	run := func(bound uint32) explore.Result {
		m, err := gcmodel.Build(core.TinyConfig())
		if err != nil {
			t.Fatal(err)
		}
		if bound > 0 {
			cimp.SetMemoBound(m.Index, bound, bound)
		}
		return explore.Run(m, invariant.All(), explore.Options{MaxDepth: depth, HashOnly: true, Trace: true})
	}
	want, got := run(0), run(32)
	if got.States != want.States || got.Transitions != want.Transitions || got.Depth != want.Depth || got.Violation != nil {
		t.Fatalf("bound 32: %d states, %d transitions, depth %d, violation %v; normal bound: %d, %d, %d",
			got.States, got.Transitions, got.Depth, got.Violation, want.States, want.Transitions, want.Depth)
	}
	if got.Memo.Retired < 100*(want.Memo.Retired+1) {
		t.Fatalf("tables retired: %d with bound 32, %d with the normal bound", got.Memo.Retired, want.Memo.Retired)
	}
	t.Logf("depth %d: %d states; bound 32 retired %d tables, %d step hits / %d misses (normal bound: %d / %d)", depth,
		got.States, got.Memo.Retired, got.Memo.StepHits, got.Memo.StepMisses, want.Memo.StepHits, want.Memo.StepMisses)
}
