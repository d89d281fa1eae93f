package gcrt

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// --- Stop-the-world baseline (E2b) -------------------------------------
//
// The design the paper's §2 ("On-the-Fly") argues against: "The most
// straightforward way to achieve this is to stop all mutator threads
// before sampling their roots, and afterwards restarting the mutators
// ... But this imposes relatively long and unpredictable pauses on
// mutators." A stopped world is every mutator parked for the length of
// one Collect: the collector services the parked mutators' handshakes
// itself, so the cycle runs with exclusive access and the
// mutator-observed pause is the whole cycle, Θ(live heap), where the
// on-the-fly collector's pauses are the handshake services, Θ(roots) at
// worst.

// collectStopped runs one Collect with the world stopped and returns the
// pause. The pause leaves out the rendezvous wait a real world-stop adds,
// so the comparison with the on-the-fly collector is conservative.
func collectStopped(rt *Runtime) time.Duration {
	for i := 0; i < rt.NumMutators(); i++ {
		rt.Mutator(i).Park()
	}
	start := time.Now()
	rt.Collect()
	pause := time.Since(start)
	for i := 0; i < rt.NumMutators(); i++ {
		rt.Mutator(i).Unpark()
	}
	return pause
}

// TestStoppedWorldCollect: with the world stopped there is no floating
// garbage. One cycle frees every object unreachable at its start, and
// keeps every parked mutator's roots.
func TestStoppedWorldCollect(t *testing.T) {
	rt := New(Options{Slots: 256, Fields: 2, Mutators: 2})
	for i := 0; i < 2; i++ {
		m := rt.Mutator(i)
		// A rooted chain of three, hanging a garbage cycle of two off
		// its tail and then cutting it loose.
		head := m.Alloc()
		prev := head
		for k := 1; k < 3; k++ {
			n := m.Alloc()
			m.Store(prev, 0, n)
			prev = n
		}
		a, b := m.Alloc(), m.Alloc()
		m.Store(a, 0, b)
		m.Store(b, 0, a)
		m.Store(prev, 1, a)
		m.Store(prev, 1, -1)
		// Garbage that was only ever rooted.
		for k := 0; k < 4+i; k++ {
			m.Alloc()
		}
		for m.NumRoots() > 1 {
			m.Discard(m.NumRoots() - 1)
		}
	}
	var roots []Obj
	for i := 0; i < 2; i++ {
		roots = append(roots, rt.Mutator(i).Roots()...)
	}
	want := len(reachable(rt.Arena(), roots))
	collectStopped(rt)
	if got := rt.Arena().LiveCount(); got != want {
		t.Fatalf("live = %d, want the %d reachable objects (a stopped world has no floating garbage)", got, want)
	}
	for i := 0; i < 2; i++ {
		for _, r := range rt.Mutator(i).Roots() {
			if !rt.Arena().Allocated(r) {
				t.Fatalf("mutator %d: parked root %d collected", i, r)
			}
		}
	}
	if f := rt.Arena().Faults.Load(); f != 0 {
		t.Fatalf("faults = %d", f)
	}
}

func TestSTWBasicCollection(t *testing.T) {
	rt := New(Options{Slots: 32, Fields: 1, Mutators: 1})
	m := rt.Mutator(0)
	keep := m.Alloc()
	g := m.Alloc()
	m.Discard(g)
	collectStopped(rt)
	if !rt.Arena().Allocated(m.Root(keep)) {
		t.Fatal("rooted object collected with the world stopped")
	}
	if rt.Arena().LiveCount() != 1 {
		t.Fatalf("live = %d, want 1 (a stopped world has no floating garbage)", rt.Arena().LiveCount())
	}
}

func TestSTWNoFloatingGarbage(t *testing.T) {
	// Unlike the on-the-fly collector, a stopped world reclaims
	// everything unreachable at the stop — in one cycle.
	rt := New(Options{Slots: 32, Fields: 1, Mutators: 1})
	m := rt.Mutator(0)
	for i := 0; i < 10; i++ {
		r := m.Alloc()
		m.Discard(r)
	}
	collectStopped(rt)
	if got := rt.Arena().LiveCount(); got != 0 {
		t.Fatalf("live = %d after one stopped-world cycle", got)
	}
}

func TestSTWWorksWithParkedMutators(t *testing.T) {
	rt := New(Options{Slots: 16, Fields: 1, Mutators: 2})
	a := rt.Mutator(0).Alloc()
	done := make(chan struct{})
	go func() { collectStopped(rt); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("Collect with every mutator parked did not finish")
	}
	if !rt.Arena().Allocated(rt.Mutator(0).Root(a)) {
		t.Fatal("parked mutator's root collected")
	}
}

func TestSTWPausesScaleWithHeap(t *testing.T) {
	// The mutator-observed stop-the-world pause covers the whole
	// collection and grows with live-heap size; the on-the-fly handshake
	// pause does not cover the trace. Compare max pauses over identical
	// heaps.
	heap := func() *Runtime {
		rt := New(Options{Slots: 8192, Fields: 1, Mutators: 1})
		m := rt.Mutator(0)
		// A long live chain: tracing it takes real work.
		head := m.Alloc()
		prev := head
		for i := 1; i < 6000; i++ {
			n := m.Alloc()
			m.Store(prev, 0, n)
			prev = n
		}
		for i := m.NumRoots() - 1; i > head; i-- {
			m.Discard(i)
		}
		return rt
	}
	stw := collectStopped(heap())
	rt := heap()
	m := rt.Mutator(0)
	done := make(chan struct{})
	go func() { rt.Collect(); close(done) }()
spin:
	for {
		select {
		case <-done:
			break spin
		default:
			m.SafePoint()
		}
	}
	otf := m.MaxPause()
	t.Logf("max pause: stop-the-world=%v on-the-fly=%v", stw, otf)
	if stw <= otf {
		t.Skipf("scheduling noise: stw=%v otf=%v (expected stw >> otf)", stw, otf)
	}
}

// --- Incremental-update rescanning variant (E2c) ------------------------
//
// The design alternative the paper's §2 ("Timeliness") rejects: a pure
// incremental-update collector that keeps only the insertion barrier and,
// instead of snapshotting, **rescans the mutators' roots** until a rescan
// discovers nothing new:
//
//	"One solution to this is for the collector to rescan the mutators'
//	roots before marking terminates. However, such references might hide
//	long chains of unmarked objects, potentially prolonging the marking
//	phase ... our collector ensures the timely completion of the
//	collection cycle by employing a snapshot (or deletion) barrier."
//
// collectRescan is safe without the deletion barrier (the insertion
// barrier maintains the strong tricolor invariant on the heap, and roots
// are re-greyed every round), but the number of rounds is driven by the
// mutators: a mutator that keeps loading white references keeps the
// marking phase alive. The snapshot collector's round count is bounded by
// design. Experiment E2c quantifies the difference; Stats().RootsRounds
// counts the rounds.

// collectRescan runs one incremental-update collection cycle with root
// rescanning and returns the number of objects freed. Use it with
// Options.NoDeletionBarrier set; the deletion barrier is harmless but
// redundant here.
func collectRescan(rt *Runtime) int {
	cycleStart := time.Now()

	rt.handshake(HSNoop)
	rt.fM.Store(!rt.fM.Load())
	rt.handshake(HSNoop)
	rt.phase.Store(int32(PhInit))
	rt.handshake(HSNoop)
	rt.phase.Store(int32(PhMark))
	if !rt.opt.AllocWhite {
		rt.fA.Store(rt.fM.Load())
	}
	rt.handshake(HSNoop)

	// Rescan until a root-marking round yields no new grey objects and
	// the trace is complete. Unlike Collect, the roots handshake repeats.
	// The trace is the serial one whatever MarkWorkers says.
	for {
		rt.handshake(HSGetRoots)
		if rt.traceAll(1) == 0 {
			break
		}
	}

	rt.phase.Store(int32(PhSweep))
	freed := rt.sweep()
	rt.phase.Store(int32(PhIdle))

	rt.stats.cycles.Add(1)
	rt.stats.freed.Add(int64(freed))
	rt.stats.cycleNanos.Add(time.Since(cycleStart).Nanoseconds())
	return freed
}

func TestRescanBasicCollection(t *testing.T) {
	rt := New(Options{Slots: 32, Fields: 1, Mutators: 1, NoDeletionBarrier: true})
	m := rt.Mutator(0)
	keep := m.Alloc()
	g := m.Alloc()
	m.Discard(g)
	m.Park()
	freed := collectRescan(rt)
	m.Unpark()
	if freed != 1 {
		t.Fatalf("freed = %d, want 1", freed)
	}
	if !rt.Arena().Allocated(m.Root(keep)) {
		t.Fatal("rooted object collected")
	}
	if r := rt.Stats().RootsRounds; r < 2 {
		t.Fatalf("rescan rounds = %d, want ≥ 2 (work round + empty round)", r)
	}
}

// TestRescanSurvivesDeletionRace: the scenario that kills the snapshot
// collector without its deletion barrier (TestLostObjectWithoutDeletionBarrier)
// is harmless for the rescanning variant: the re-scan finds the loaded
// root.
func TestRescanSurvivesDeletionRace(t *testing.T) {
	rt := New(Options{Slots: 16, Fields: 1, Mutators: 2, NoDeletionBarrier: true})
	m1, m2 := rt.Mutator(0), rt.Mutator(1)

	h := m1.Alloc()
	x := m1.Alloc()
	m1.Store(h, 0, x)
	m1.Discard(x)

	done := make(chan struct{})
	go func() { collectRescan(rt); close(done) }()

	for m1.Served() < 4 || m2.Served() < 4 {
		m1.SafePoint()
		m2.SafePoint()
	}
	m1.AwaitHandshakes(5) // m1's first root scan: h marked

	// The mischief: load x, erase the heap edge. No deletion barrier
	// fires — but the next rescan round will see x in m1's roots.
	xr := m1.Load(h, 0)
	xObj := m1.Root(xr)
	m1.Store(h, 0, -1)

	m2.AwaitHandshakes(5)
	m1.Park()
	m2.Park()
	<-done
	m1.Unpark()
	m2.Unpark()

	if !rt.Arena().Allocated(xObj) {
		t.Fatal("rescanning variant lost a rooted object")
	}
	if f := rt.Arena().Faults.Load(); f != 0 {
		t.Fatalf("faults = %d", f)
	}
}

// TestRescanUnboundedRounds: an adversarial mutator that keeps loading
// white references prolongs marking — each new white root forces another
// rescan round. The snapshot collector's round structure is fixed by
// design; this is the paper's timeliness argument (§2, "Timeliness").
//
// Determinism: the adversary performs its mischief after its own root
// scan but before the lagging mutator completes the round, so the
// collector cannot have started tracing yet. Each round therefore
// discovers exactly one new chain node: round k marks x_k, then the
// adversary loads x_{k+1} from x_k.f, severs the edge (no deletion
// barrier) and drops x_k — leaving x_{k+1} white and rooted.
func TestRescanUnboundedRounds(t *testing.T) {
	const chain = 12
	rt := New(Options{Slots: 64, Fields: 1, Mutators: 2, NoDeletionBarrier: true})
	adv := rt.Mutator(0)
	lag := rt.Mutator(1)

	head := adv.Alloc()
	prev := head
	for i := 1; i < chain; i++ {
		n := adv.Alloc()
		adv.Store(prev, 0, n)
		prev = n
	}
	for i := adv.NumRoots() - 1; i > head; i-- {
		adv.Discard(i)
	}
	// Root slot 0 now holds the current chain node.

	done := make(chan struct{})
	go func() { collectRescan(rt); close(done) }()

	for {
		select {
		case <-done:
			rounds := rt.Stats().RootsRounds
			t.Logf("rescan rounds = %d (chain length %d)", rounds, chain)
			// One round per chain node plus the final empty round; allow
			// slack for the initialization rounds' interleaving.
			if rounds < chain {
				t.Fatalf("rounds = %d, want ≥ %d: adversary failed to prolong marking", rounds, chain)
			}
			if f := rt.Arena().Faults.Load(); f != 0 {
				t.Fatalf("faults = %d (rescanning variant lost an object)", f)
			}
			if !rt.Arena().Allocated(adv.Root(0)) {
				t.Fatal("adversary's final root freed")
			}
			return
		default:
		}
		prevServed := adv.Served()
		adv.SafePoint()
		if adv.Served() > prevServed {
			// Mischief window: our scan is done, the round is still open
			// (lag has not served), tracing has not started. Only rescan
			// (get-roots) rounds matter; the initialization noops are
			// left alone.
			if HSType(rt.hsType.Load()) == HSGetRoots {
				if next := adv.Load(0, 0); next != -1 {
					adv.Store(0, 0, -1) // sever x_k.f (no deletion barrier)
					adv.Discard(0)      // drop x_k; x_{k+1} slides into slot 0
				}
			}
			for lag.Served() < adv.Served() {
				lag.SafePoint()
			}
		}
	}
}

// TestRescanConcurrentStress: the rescanning variant under the same
// random concurrent workload as the snapshot collector, with the
// deletion barrier off — no lost objects.
func TestRescanConcurrentStress(t *testing.T) {
	const nMut = 3
	rt := New(Options{Slots: 256, Fields: 2, Mutators: nMut, NoDeletionBarrier: true})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < nMut; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			m := rt.Mutator(id)
			rng := rand.New(rand.NewSource(int64(id) + 99))
			m.Alloc()
			for {
				select {
				case <-stop:
					m.Park()
					return
				default:
				}
				n := m.NumRoots()
				switch {
				case n == 0:
					m.Alloc()
				case n > 16:
					m.Discard(rng.Intn(n))
				default:
					switch rng.Intn(4) {
					case 0:
						m.Alloc()
					case 1:
						m.Load(rng.Intn(n), rng.Intn(2))
					case 2:
						dst := rng.Intn(n)
						if rng.Intn(3) == 0 {
							dst = -1
						}
						m.Store(rng.Intn(n), rng.Intn(2), dst)
					case 3:
						m.Discard(rng.Intn(n))
					}
				}
				m.SafePoint()
			}
		}(i)
	}
	for c := 0; c < 12; c++ {
		collectRescan(rt)
	}
	close(stop)
	wg.Wait()
	if f := rt.Arena().Faults.Load(); f != 0 {
		t.Fatalf("%d faults under the rescanning variant", f)
	}
	var roots []Obj
	for i := 0; i < nMut; i++ {
		roots = append(roots, rt.Mutator(i).Roots()...)
	}
	for _, r := range roots {
		if !rt.Arena().Allocated(r) {
			t.Fatalf("dangling root %d", r)
		}
	}
}

// TestSnapshotBoundsRoundsUnderAdversary: the same chain-walking
// adversary cannot prolong the snapshot collector's marking phase: the
// deletion barrier greys each severed node, so the trace completes
// within the fixed round structure (roots round + a handful of get-work
// rounds), independent of the chain length.
func TestSnapshotBoundsRoundsUnderAdversary(t *testing.T) {
	const chain = 12
	rt := New(Options{Slots: 64, Fields: 1, Mutators: 2})
	adv := rt.Mutator(0)
	lag := rt.Mutator(1)

	head := adv.Alloc()
	prev := head
	for i := 1; i < chain; i++ {
		n := adv.Alloc()
		adv.Store(prev, 0, n)
		prev = n
	}
	for i := adv.NumRoots() - 1; i > head; i-- {
		adv.Discard(i)
	}

	done := make(chan struct{})
	go func() { rt.Collect(); close(done) }()

	for {
		select {
		case <-done:
			s := rt.Stats()
			t.Logf("roots rounds = %d, total rounds = %d (chain length %d)", s.RootsRounds, s.Handshakes, chain)
			// The structural claim of §2: the snapshot collector samples
			// the mutator roots exactly once per cycle, no matter what
			// the adversary does; the rescanning variant re-samples once
			// per round (TestRescanUnboundedRounds observes ≥ chain).
			if s.RootsRounds != 1 {
				t.Fatalf("snapshot collector sampled roots %d times", s.RootsRounds)
			}
			if f := rt.Arena().Faults.Load(); f != 0 {
				t.Fatalf("faults = %d", f)
			}
			return
		default:
		}
		prevServed := adv.Served()
		adv.SafePoint()
		if adv.Served() > prevServed {
			ht := HSType(rt.hsType.Load())
			if ht == HSGetRoots || ht == HSGetWork {
				if next := adv.Load(0, 0); next != -1 {
					adv.Store(0, 0, -1) // deletion barrier greys the severed target
					adv.Discard(0)
				}
			}
			for lag.Served() < adv.Served() {
				lag.SafePoint()
			}
		}
	}
}
