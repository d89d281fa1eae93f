package repro

// One benchmark per experiment in DESIGN.md's per-experiment index
// (E1–E16; E14's write-barrier pair needs the arena's raw mark flag, so
// it lives with the kernel in internal/gcrt). The paper has no
// performance tables — it is a verification paper — so these
// benchmarks regenerate the cost profile of every
// artifact the paper's figures define: the semantics, the TSO machine,
// the model checker that re-establishes the theorem, and the runtime
// kernel's barrier/handshake/cycle costs that motivate the design
// choices (§2.3, §2.4). EXPERIMENTS.md records representative numbers.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/gcmodel"
	"repro/internal/gcrt"
	"repro/internal/heap"
	"repro/internal/invariant"
	"repro/internal/litmus"
	"repro/internal/liveness"
	"repro/internal/sched"
	"repro/internal/tso"
)

// --- E1 (Figure 1): grey protection over white chains -----------------

func BenchmarkE1GreyProtection(b *testing.B) {
	h := heap.New(64)
	for i := 0; i < 64; i++ {
		h.AllocAt(heap.Ref(i), 2, false)
	}
	for i := 0; i < 64; i++ {
		h.Store(heap.Ref(i), 0, heap.Ref((i+1)%64))
		h.Store(heap.Ref(i), 1, heap.Ref((i*7+3)%64))
	}
	grey := heap.SetOf(0, 17, 42)
	white := func(r heap.Ref) bool { return int(r)%3 != 0 }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.ReachableVia(grey, white)
	}
}

// --- E2 (Figure 2): a full collector cycle ----------------------------

func BenchmarkE2CollectorCycle(b *testing.B) {
	for _, slots := range []int{256, 4096} {
		b.Run(sizeName(slots), func(b *testing.B) {
			rt := gcrt.New(gcrt.Options{Slots: slots, Fields: 2, Mutators: 1})
			m := rt.Mutator(0)
			// A live list occupying a quarter of the arena.
			head := m.Alloc()
			prev := head
			for i := 1; i < slots/4; i++ {
				n := m.Alloc()
				m.Store(prev, 0, n)
				prev = n
			}
			for i := m.NumRoots() - 1; i > head; i-- {
				m.Discard(i)
			}
			m.Park()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rt.Collect()
			}
		})
	}
}

// --- E3 (Figure 3): handshake rounds vs mutator count -----------------

func BenchmarkE3HandshakeRound(b *testing.B) {
	for _, muts := range []int{1, 4, 16} {
		b.Run(sizeName(muts), func(b *testing.B) {
			rt := gcrt.New(gcrt.Options{Slots: 64, Fields: 1, Mutators: muts})
			for i := 0; i < muts; i++ {
				rt.Mutator(i).Park()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rt.Collect() // 5+ handshake rounds per cycle
			}
			b.StopTimer()
			s := rt.Stats()
			b.ReportMetric(float64(s.HandshakeTime.Nanoseconds())/float64(s.Handshakes), "ns/handshake")
		})
	}
}

// --- E4 (Figure 4): handshake service through active safe points ------

func BenchmarkE4SafePointServe(b *testing.B) {
	rt := gcrt.New(gcrt.Options{Slots: 64, Fields: 1, Mutators: 1})
	m := rt.Mutator(0)
	m.Alloc()
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				m.SafePoint()
			}
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Collect()
	}
	b.StopTimer()
	close(stop)
}

// --- E5 (Figure 5): the mark operation's two paths ---------------------

func BenchmarkE5MarkIdleFastPath(b *testing.B) {
	// With the collector idle, the write barriers run Figure 5 up to the
	// phase test and never attempt the CAS.
	rt := gcrt.New(gcrt.Options{Slots: 16, Fields: 1, Mutators: 1})
	m := rt.Mutator(0)
	a := m.Alloc()
	x := m.Alloc()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Store(a, 0, x)
	}
	b.StopTimer()
	if s := rt.Stats(); s.MarkCAS != 0 {
		b.Fatalf("unexpected CAS on idle fast path: %d", s.MarkCAS)
	}
}

// --- E6 (Figure 6): mutator operation throughput -----------------------

func BenchmarkE6MutatorOps(b *testing.B) {
	rt := gcrt.New(gcrt.Options{Slots: 1024, Fields: 2, Mutators: 1})
	m := rt.Mutator(0)
	a := m.Alloc()
	x := m.Alloc()
	m.Store(a, 0, x)
	b.Run("load", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.Load(a, 0)
			m.Discard(m.NumRoots() - 1)
		}
	})
	b.Run("store", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.Store(a, 1, x)
		}
	})
	b.Run("alloc-discard", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := m.Alloc()
			if r == -1 {
				b.StopTimer()
				m.Park()
				rt.Collect()
				rt.Collect()
				m.Unpark()
				b.StartTimer()
				continue
			}
			m.Discard(r)
		}
	})
	b.Run("safepoint-idle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.SafePoint()
		}
	})
}

// --- E7 (Figures 7–8): CIMP system-step enumeration --------------------

func BenchmarkE7CIMPStep(b *testing.B) {
	m, err := gcmodel.Build(core.TinyConfig())
	if err != nil {
		b.Fatal(err)
	}
	st := m.Initial()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		m.Successors(st, func(gcmodel.SysState, gcmodel.SysEvent) { n++ })
		if n == 0 {
			b.Fatal("no successors")
		}
	}
}

// --- E8 (Figure 9): exhaustive litmus exploration ----------------------

func BenchmarkE8TSOLitmus(b *testing.B) {
	for _, t := range []litmus.Test{litmus.SB(), litmus.MP(), litmus.IRIW()} {
		b.Run(t.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = tso.Explore(t.Prog, tso.TSO)
			}
		})
	}
}

// --- E9 (Figure 10): mark-loop model exploration -----------------------

func BenchmarkE9MarkLoopModel(b *testing.B) {
	cfg := core.ChainConfig()
	m, err := gcmodel.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	states := 0
	for i := 0; i < b.N; i++ {
		res := explore.Run(m, nil, explore.Options{MaxStates: 20_000, HashOnly: true})
		states += res.States
	}
	b.ReportMetric(float64(states)/b.Elapsed().Seconds(), "states/s")
}

// --- E10 (headline theorem): model-checking throughput -----------------

func BenchmarkE10HeadlineModelCheck(b *testing.B) {
	cfg := core.TinyConfig()
	m, err := gcmodel.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	states := 0
	for i := 0; i < b.N; i++ {
		res := explore.Run(m, invariant.All(), explore.Options{MaxStates: 20_000, HashOnly: true})
		if res.Violation != nil {
			b.Fatal(res.Violation)
		}
		states += res.States
	}
	b.ReportMetric(float64(states)/b.Elapsed().Seconds(), "states/s")
}

// --- E17: the parallel sharded checker (this repo's perf tentpole) ------
//
// BenchmarkExploreWorkers scales the layer-synchronous BFS across worker
// counts on the standard (tiny) configuration; BenchmarkExploreFingerprints
// compares retained-string fingerprints against 64-bit hash compaction at
// a fixed worker count, reporting visited-set payload bytes per state.
// EXPERIMENTS.md records representative numbers and the reproduction
// commands.

func BenchmarkExploreWorkers(b *testing.B) {
	m, err := gcmodel.Build(core.TinyConfig())
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(itoa(w)+"w", func(b *testing.B) {
			states := 0
			for i := 0; i < b.N; i++ {
				res := explore.Run(m, invariant.All(),
					explore.Options{MaxStates: 50_000, Workers: w, HashOnly: true})
				if res.Violation != nil {
					b.Fatal(res.Violation)
				}
				states += res.States
			}
			b.ReportMetric(float64(states)/b.Elapsed().Seconds(), "states/s")
		})
	}
}

func BenchmarkExploreFingerprints(b *testing.B) {
	m, err := gcmodel.Build(core.TinyConfig())
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name     string
		hashOnly bool
	}{{"string", false}, {"hashed", true}} {
		b.Run(mode.name, func(b *testing.B) {
			states := 0
			var bytesPerState float64
			for i := 0; i < b.N; i++ {
				res := explore.Run(m, invariant.All(),
					explore.Options{MaxStates: 50_000, Workers: 1, HashOnly: mode.hashOnly})
				if res.Violation != nil {
					b.Fatal(res.Violation)
				}
				states += res.States
				bytesPerState = float64(res.VisitedBytes) / float64(res.States)
			}
			b.ReportMetric(float64(states)/b.Elapsed().Seconds(), "states/s")
			b.ReportMetric(bytesPerState, "visited-B/state")
		})
	}
}

// --- E17b: state-space reduction (POR) ---------------------------------
//
// BenchmarkExploreReduction compares exploration throughput and capped
// state counts with and without the reduction on the standard tiny
// configuration and on the identical-roots two-mutator configuration.
// The soundness of the reduction is the subject of package diffcheck;
// EXPERIMENTS.md records the uncapped shrink ratios.

func BenchmarkExploreReduction(b *testing.B) {
	for _, c := range []struct {
		name string
		cfg  core.ModelConfig
	}{
		{"tiny", core.TinyConfig()},
		{"two-sym", core.SymmetricConfig()},
	} {
		m, err := gcmodel.Build(c.cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, md := range []struct {
			name   string
			reduce bool
		}{
			{"full", false},
			{"reduce", true},
		} {
			b.Run(c.name+"/"+md.name, func(b *testing.B) {
				states := 0
				for i := 0; i < b.N; i++ {
					res := explore.Run(m, invariant.All(), explore.Options{
						MaxStates: 50_000, HashOnly: true, Reduce: md.reduce,
					})
					if res.Violation != nil {
						b.Fatal(res.Violation)
					}
					states += res.States
				}
				b.ReportMetric(float64(states)/b.Elapsed().Seconds(), "states/s")
			})
		}
	}
}

// BenchmarkLitmusReduction runs the whole published litmus battery
// through the TSO explorer with and without partial-order reduction.
func BenchmarkLitmusReduction(b *testing.B) {
	for _, md := range []struct {
		name string
		opt  tso.ExploreOptions
	}{
		{"full", tso.ExploreOptions{}},
		{"reduce", tso.ExploreOptions{Reduce: true}},
	} {
		b.Run(md.name, func(b *testing.B) {
			states := 0
			for i := 0; i < b.N; i++ {
				for _, tc := range litmus.All() {
					for _, model := range []tso.Model{tso.TSO, tso.SC} {
						states += tso.ExploreX(tc.Prog, model, md.opt).States
					}
				}
			}
			b.ReportMetric(float64(states)/float64(b.N), "states/suite")
		})
	}
}

// --- E11: time-to-counterexample for the barrier ablations -------------

func BenchmarkE11AblationCounterexample(b *testing.B) {
	cfg := core.TinyConfig()
	cfg.NoDeletionBarrier = true
	m, err := gcmodel.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := explore.Run(m, invariant.Safety(), explore.Options{MaxStates: 500_000, HashOnly: true})
		if res.Violation == nil {
			b.Fatal("counterexample not found")
		}
	}
}

// --- E12: handshake-elision exploration ---------------------------------

func BenchmarkE12ElideHandshake(b *testing.B) {
	cfg := core.TinyConfig()
	cfg.ElideHS2 = true
	m, err := gcmodel.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = explore.Run(m, invariant.All(), explore.Options{MaxStates: 20_000, HashOnly: true})
	}
}

// --- E13: TSO vs SC outcome separation ----------------------------------

func BenchmarkE13TSOvsSC(b *testing.B) {
	prog := litmus.SB().Prog
	b.Run("TSO", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			outs := tso.Explore(prog, tso.TSO)
			if len(outs) != 4 {
				b.Fatalf("TSO outcomes = %d, want 4", len(outs))
			}
		}
	})
	b.Run("SC", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			outs := tso.Explore(prog, tso.SC)
			if len(outs) != 3 {
				b.Fatalf("SC outcomes = %d, want 3", len(outs))
			}
		}
	})
}

// --- E15: floating garbage dies within two cycles -----------------------

func BenchmarkE15FloatingGarbage(b *testing.B) {
	rt := gcrt.New(gcrt.Options{Slots: 2048, Fields: 1, Mutators: 1})
	m := rt.Mutator(0)
	m.Park()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m.Unpark()
		for k := 0; k < 1024; k++ {
			if r := m.Alloc(); r != -1 {
				m.Discard(r)
			}
		}
		m.Park()
		b.StartTimer()
		rt.Collect()
		rt.Collect()
		b.StopTimer()
		if live := rt.Arena().LiveCount(); live != 0 {
			b.Fatalf("floating garbage retained: %d", live)
		}
		b.StartTimer()
	}
}

// --- E16: invariant battery evaluation cost ------------------------------

func BenchmarkE16InvariantCheck(b *testing.B) {
	m, err := gcmodel.Build(core.ChainConfig())
	if err != nil {
		b.Fatal(err)
	}
	g := gcmodel.Global{Model: m, State: m.Initial()}
	checks := invariant.All()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := invariant.NewView(g)
		for _, c := range checks {
			if err := c.Pred(v); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- random-walk simulation throughput (gcsim's engine) -----------------

func BenchmarkSimulatorWalk(b *testing.B) {
	cfg := core.AllocConfig()
	cfg.OpBudget = 0
	m, err := gcmodel.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	steps := 0
	for i := 0; i < b.N; i++ {
		res := sched.Walk(m, invariant.All(), sched.Options{Seed: int64(i + 1), Steps: 2000})
		if res.Violation != nil {
			b.Fatal(res.Violation)
		}
		steps += res.Steps
	}
	b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "steps/s")
}

func sizeName(n int) string {
	switch {
	case n >= 1024:
		return itoa(n/1024) + "k"
	default:
		return itoa(n)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// --- E2b: mutator pause, stop-the-world baseline vs on-the-fly ----------

func BenchmarkE2bMaxPause(b *testing.B) {
	run := func(b *testing.B, collect func(*gcrt.Runtime) int) {
		var worst int64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			rt := gcrt.New(gcrt.Options{Slots: 8192, Fields: 1, Mutators: 1})
			m := rt.Mutator(0)
			head := m.Alloc()
			prev := head
			for k := 1; k < 4096; k++ {
				n := m.Alloc()
				m.Store(prev, 0, n)
				prev = n
			}
			for k := m.NumRoots() - 1; k > head; k-- {
				m.Discard(k)
			}
			done := make(chan struct{})
			b.StartTimer()
			go func() { collect(rt); close(done) }()
		spin:
			for {
				select {
				case <-done:
					break spin
				default:
					m.SafePoint()
				}
			}
			b.StopTimer()
			if p := int64(m.MaxPause()); p > worst {
				worst = p
			}
			b.StartTimer()
		}
		b.ReportMetric(float64(worst), "worst-pause-ns")
	}
	b.Run("stop-the-world", func(b *testing.B) {
		run(b, func(rt *gcrt.Runtime) int { return rt.CollectSTW() })
	})
	b.Run("on-the-fly", func(b *testing.B) {
		run(b, func(rt *gcrt.Runtime) int { return rt.Collect() })
	})
}

// --- E2c: rescanning variant round inflation -----------------------------

func BenchmarkE2cRescanRounds(b *testing.B) {
	// Quiesced comparison: with parked mutators both variants trace the
	// same heap; the rescanning variant still pays one extra (empty)
	// roots round per cycle, and under adversarial mutators its rounds
	// grow with the hidden chain (see TestRescanUnboundedRounds).
	b.Run("snapshot", func(b *testing.B) {
		rt := gcrt.New(gcrt.Options{Slots: 512, Fields: 1, Mutators: 1})
		seedList(rt, 256)
		rt.Mutator(0).Park()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rt.Collect()
		}
	})
	b.Run("rescan", func(b *testing.B) {
		rt := gcrt.New(gcrt.Options{Slots: 512, Fields: 1, Mutators: 1, NoDeletionBarrier: true})
		seedList(rt, 256)
		rt.Mutator(0).Park()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rt.CollectRescan()
		}
		b.StopTimer()
		b.ReportMetric(float64(rt.RescanRounds())/float64(b.N), "rounds/cycle")
	})
}

func seedList(rt *gcrt.Runtime, n int) {
	m := rt.Mutator(0)
	head := m.Alloc()
	prev := head
	for i := 1; i < n; i++ {
		x := m.Alloc()
		m.Store(prev, 0, x)
		prev = x
	}
	for i := m.NumRoots() - 1; i > head; i-- {
		m.Discard(i)
	}
}

// --- E18: liveness — fair-cycle search over the state graph -----------

// BenchmarkE18Liveness measures the full progress check (one recorded
// exploration of the unreduced relation, the graph build from its log,
// and one SCC pass per property) on a small stores-only configuration; EXPERIMENTS.md records the uncapped
// preset costs.
func BenchmarkE18Liveness(b *testing.B) {
	cfg := core.TinyConfig()
	cfg.OpBudget = 1
	cfg.MaxBuf = 1
	cfg.DisableLoad = true
	cfg.DisableDiscard = true
	m, err := gcmodel.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := liveness.Check(m, liveness.Options{}, explore.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Holds() {
			b.Fatal("clean model violated a progress property")
		}
		b.ReportMetric(float64(res.States), "states")
	}
}
