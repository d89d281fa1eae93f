package gcrt

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// --- Stop-the-world baseline (E2b) -------------------------------------

func TestSTWBasicCollection(t *testing.T) {
	rt := New(Options{Slots: 32, Fields: 1, Mutators: 1})
	m := rt.Mutator(0)
	keep := m.Alloc()
	g := m.Alloc()
	m.Discard(g)

	done := make(chan struct{})
	go func() { rt.CollectSTW(); close(done) }()
	// The mutator must acknowledge the stop before collection proceeds.
	for {
		select {
		case <-done:
			if !rt.Arena().Allocated(m.Root(keep)) {
				t.Fatal("rooted object collected by STW")
			}
			if rt.Arena().LiveCount() != 1 {
				t.Fatalf("live = %d, want 1 (STW has no floating garbage)", rt.Arena().LiveCount())
			}
			return
		default:
			m.SafePoint()
		}
	}
}

// TestSTWBackToBackCyclesDoNotLoseAcks is the regression test for two
// lost-wakeup bugs in the world-stop rendezvous: CollectSTW used to publish
// the request before clearing the acknowledgements (a prompt mutator's ack
// was erased and both sides spun forever), and a mutator that was never
// scheduled between one cycle's release and the next cycle's request kept
// waiting for the old release with its ack cleared. Thousands of
// back-to-back cycles against two busy mutators on two Ps hit both windows.
func TestSTWBackToBackCyclesDoNotLoseAcks(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	rt := New(Options{Slots: 1024, Fields: 1, Mutators: 2})
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		m := rt.Mutator(i)
		keep := m.Alloc() // before the other mutator can have churned through the arena
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if g := m.Alloc(); g >= 0 { // -1: arena full until the next sweep
					m.Store(keep, 0, g)
					m.Discard(g)
				}
				m.SafePoint()
			}
		}()
	}
	const cycles = 3000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for c := 0; c < cycles; c++ {
			rt.CollectSTW()
		}
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Errorf("world-stop rendezvous hung after %d of %d cycles", rt.Stats().Cycles, cycles)
		// Unblock whoever can still be unblocked so the test binary exits.
		rt.stw.Store(stwIdle)
	}
	stop.Store(true)
	wg.Wait()
}

func TestSTWNoFloatingGarbage(t *testing.T) {
	// Unlike the snapshot collector, STW reclaims everything unreachable
	// at the stop — in one cycle.
	rt := New(Options{Slots: 32, Fields: 1, Mutators: 1})
	m := rt.Mutator(0)
	for i := 0; i < 10; i++ {
		r := m.Alloc()
		m.Discard(r)
	}
	m.Park()
	rt.CollectSTW()
	m.Unpark()
	if got := rt.Arena().LiveCount(); got != 0 {
		t.Fatalf("live = %d after one STW cycle", got)
	}
}

func TestSTWWorksWithParkedMutators(t *testing.T) {
	rt := New(Options{Slots: 16, Fields: 1, Mutators: 2})
	a := rt.Mutator(0).Alloc()
	rt.Mutator(0).Park()
	rt.Mutator(1).Park()
	rt.CollectSTW() // must not deadlock
	if !rt.Arena().Allocated(rt.Mutator(0).Root(a)) {
		t.Fatal("parked mutator's root collected")
	}
}

func TestSTWPausesScaleWithHeap(t *testing.T) {
	// The mutator-observed STW pause covers the whole collection and
	// grows with live-heap size; the on-the-fly handshake pause does not
	// cover the trace. Compare max pauses over identical heaps.
	pause := func(collect func(*Runtime) int) time.Duration {
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
		done := make(chan struct{})
		go func() { collect(rt); close(done) }()
		for {
			select {
			case <-done:
				return m.MaxPause()
			default:
				m.SafePoint()
			}
		}
	}
	stw := pause(func(rt *Runtime) int { return rt.CollectSTW() })
	otf := pause(func(rt *Runtime) int { return rt.Collect() })
	t.Logf("max pause: stop-the-world=%v on-the-fly=%v", stw, otf)
	if stw <= otf {
		t.Skipf("scheduling noise: stw=%v otf=%v (expected stw >> otf)", stw, otf)
	}
}

// --- Incremental-update rescanning variant (E2c) ------------------------

func TestRescanBasicCollection(t *testing.T) {
	rt := New(Options{Slots: 32, Fields: 1, Mutators: 1, NoDeletionBarrier: true})
	m := rt.Mutator(0)
	keep := m.Alloc()
	g := m.Alloc()
	m.Discard(g)
	m.Park()
	freed := rt.CollectRescan()
	m.Unpark()
	if freed != 1 {
		t.Fatalf("freed = %d, want 1", freed)
	}
	if !rt.Arena().Allocated(m.Root(keep)) {
		t.Fatal("rooted object collected")
	}
	if rt.RescanRounds() < 2 {
		t.Fatalf("rescan rounds = %d, want ≥ 2 (work round + empty round)", rt.RescanRounds())
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
	go func() { rt.CollectRescan(); close(done) }()

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
	go func() { rt.CollectRescan(); close(done) }()

	for {
		select {
		case <-done:
			rounds := rt.RescanRounds()
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
		rt.CollectRescan()
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
