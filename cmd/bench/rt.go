package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gcrt"
)

// rtShape is one runtime workload: an arena and, per mutator, an op
// stream over a graph built at set-up.
type rtShape struct {
	name          string
	slots, fields int
	// listNodes is the length of each mutator's list; 0 for churn, which
	// starts from an empty root set.
	listNodes int
}

const rtMutators = 2

// rtReps is the number of measured repetitions of an rt-* run.
const rtReps = 12

// churn's arena is far larger than its live set on purpose: objects
// allocated during a cycle survive it, so the arena must absorb a whole
// cycle's allocation — about 10 M objects/s — even when the collector
// goroutine is descheduled for tens of milliseconds. A smaller arena
// stalls Alloc, and a stall is a failed operation.
var churnShape = rtShape{name: "rt-churn", slots: 1 << 20, fields: 1}

var liveGraphShape = rtShape{name: "rt-livegraph", slots: 1 << 17, fields: 2, listNodes: 20000}

func (s rtShape) newGen(seed int64, mutator int) opGen {
	if s.listNodes == 0 {
		return &churnGen{rng: newSplitmix(seed, mutator)}
	}
	return newLiveGraphGen(seed, mutator, s.listNodes)
}

// rtRun is a runtime with its mutators' op streams, between phases: both
// mutators parked, the collector idle.
type rtRun struct {
	rt      *gcrt.Runtime
	workers []*mutWorker
}

// mutWorker drives one mutator from its op stream.
type mutWorker struct {
	m     *gcrt.Mutator
	arena *gcrt.Arena
	gen   opGen

	ops, allocs, stores int64
	stalls              int64
	// waits counts the polls spent holding back while the arena was
	// nearly full (see loop).
	waits int64
	// broken is set when the runtime contradicted the shadow (a Load that
	// had to find a reference found NULL, or the arena stayed exhausted):
	// the root layout is no longer known, so the stream stops.
	broken string

	// Tracing: every 64th op and the safe point after it are timed.
	tr                                                *tracer
	kAlloc, kStore, kLoad, kDiscard, kSafe, kSafeBusy *spanKind
}

// setUp builds the runtime and, through the public mutator API only, each
// mutator's graph: allocate a node, link the list so far behind it, drop
// the old head. It ends with every mutator parked and the collector idle.
func (s rtShape) setUp(seed int64, opt gcrt.Options) (*rtRun, error) {
	opt.Slots, opt.Fields, opt.Mutators = s.slots, s.fields, rtMutators
	r := &rtRun{rt: gcrt.New(opt)}
	for i := 0; i < rtMutators; i++ {
		m := r.rt.Mutator(i)
		for n := 0; n < s.listNodes; n++ {
			if m.Alloc() < 0 {
				return nil, fmt.Errorf("%s: arena exhausted building the live graph", s.name)
			}
			if n > 0 {
				m.Store(1, 0, 0)
				m.Discard(0)
			}
		}
		if s.listNodes > 0 {
			// Cursor and anchor both start at head.next.
			if m.Load(0, 0) < 0 || m.Load(0, 0) < 0 {
				return nil, fmt.Errorf("%s: live graph has no second node", s.name)
			}
		}
		m.Park()
		r.workers = append(r.workers, &mutWorker{m: m, arena: r.rt.Arena(), gen: s.newGen(seed, i)})
	}
	// One full-arena cycle before anything is measured: fill every free
	// slot with garbage and collect it. The sweep's scratch buffer and
	// the free lists thereby reach the size a worst-case cycle needs, so
	// peak_mem_mb measures the configured footprint and not how long the
	// host happened to deschedule the collector during the run.
	m := r.rt.Mutator(0)
	m.Unpark()
	for i := m.Alloc(); i >= 0; i = m.Alloc() {
		m.Discard(i)
	}
	m.Park()
	r.rt.Collect()
	r.rt.Collect()
	return r, nil
}

func (w *mutWorker) trace(tr *tracer) {
	w.tr = tr
	w.kAlloc, w.kStore, w.kLoad, w.kDiscard = tr.kind("gcrt.Mutator.Alloc"), tr.kind("gcrt.Mutator.Store"), tr.kind("gcrt.Mutator.Load"), tr.kind("gcrt.Mutator.Discard")
	w.kSafe, w.kSafeBusy = tr.kind("gcrt.Mutator.SafePoint"), tr.kind("gcrt.Mutator.SafePoint.handshake")
	if w.kSafe != nil {
		w.kSafe.samples, w.kSafeBusy.samples = true, true
	}
}

// apply executes one op, timing it when sampled.
func (w *mutWorker) apply(o *op, sampled bool) {
	w.ops++
	switch o.kind {
	case opAlloc:
		w.allocs++
		if sampled {
			w.tr.push(w.kAlloc)
		}
		i := w.m.Alloc()
		if sampled {
			w.tr.pop()
		}
		// A stall (arena exhausted) is a failed op. Give the collector
		// room and retry, so the shadow's root layout stays true.
		for since := time.Now(); i < 0; {
			w.stalls++
			if time.Since(since) > 2*time.Second {
				w.broken = "arena stayed exhausted for 2 s"
				return
			}
			w.m.SafePoint()
			runtime.Gosched()
			i = w.m.Alloc()
		}
	case opDiscard:
		if sampled {
			w.tr.push(w.kDiscard)
		}
		w.m.Discard(int(o.a))
		if sampled {
			w.tr.pop()
		}
	case opLoad:
		if sampled {
			w.tr.push(w.kLoad)
		}
		i := w.m.Load(int(o.a), int(o.b))
		if sampled {
			w.tr.pop()
		}
		if (i < 0) != o.wantNil {
			w.broken = fmt.Sprintf("Load(root %d, field %d) returned %d, shadow says NULL=%v", o.a, o.b, i, o.wantNil)
		}
	case opStore:
		w.stores++
		if sampled {
			w.tr.push(w.kStore)
		}
		w.m.Store(int(o.a), int(o.b), int(o.c))
		if sampled {
			w.tr.pop()
		}
	}
}

// safePoint polls for a handshake; sampled polls are timed, and split by
// whether a handshake was serviced (Served moved) or the poll was idle.
func (w *mutWorker) safePoint(sampled bool) {
	if !sampled {
		w.m.SafePoint()
		return
	}
	before := w.m.Served()
	w.tr.push(w.kSafe)
	w.m.SafePoint()
	if w.m.Served() != before {
		// Re-file the span under the busy kind.
		w.tr.stack[len(w.tr.stack)-1].kind = w.kSafeBusy
	}
	w.tr.pop()
}

// loop runs ops until stop is set: a safe point every 4 ops, a yield
// every 64 — the cadence a compiler's safe points and a busy scheduler
// would give. It returns the time it ran.
func (w *mutWorker) loop(stop *atomic.Bool) time.Duration {
	var o op
	w.m.Unpark()
	start := time.Now()
	for block := 0; !stop.Load() && w.broken == ""; block++ {
		if w.tr != nil {
			// One op and one safe point per block are timed; one block
			// in 64 also keeps their span records.
			w.tr.keep = block%64 == 0
		}
		if block%16 == 0 {
			// Closed loop: a client of a nearly full arena waits for
			// the collector instead of sending allocations that must
			// fail. It takes the host descheduling the collector for
			// ~100 ms to get here; the wait shows as lower work_per_s.
			for a := w.arena; a.FreeCount() < a.NumSlots()/8 && !stop.Load(); w.waits++ {
				w.m.SafePoint()
				runtime.Gosched()
			}
		}
		for i := 0; i < 64 && w.broken == ""; i++ {
			w.gen.next(&o)
			w.apply(&o, w.tr != nil && i == 0)
			if i&3 == 3 {
				w.safePoint(w.tr != nil && i == 3)
			}
		}
		runtime.Gosched()
	}
	d := time.Since(start)
	w.m.Park()
	return d
}

// phaseResult is one timed stretch of mutators and collector together.
type phaseResult struct {
	opsPerS float64 // summed over the mutators, each over the time it ran
	wall    time.Duration
	cycles  []time.Duration // every rt.Collect(), timed from outside
}

// phase runs every mutator's stream for d while the collector cycles back
// to back, optionally auditing with the oracle between cycles. until, if
// non-nil, ends the phase early (the negative control stops at its first
// finding).
func (r *rtRun) phase(d time.Duration, ctr *tracer, audit bool, until func() bool) phaseResult {
	var stop atomic.Bool
	var running atomic.Int32
	running.Store(int32(len(r.workers)))
	var res phaseResult
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for _, w := range r.workers {
		wg.Add(1)
		go func(w *mutWorker) {
			defer wg.Done()
			before := w.ops
			el := w.loop(&stop)
			running.Add(-1)
			mu.Lock()
			res.opsPerS += float64(w.ops-before) / el.Seconds()
			mu.Unlock()
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		kCycle := ctr.kind("gcrt.Runtime.Collect")
		if ctr != nil {
			ctr.keep = true
		}
		for running.Load() > 0 {
			t0 := time.Now()
			ctr.push(kCycle)
			r.rt.Collect()
			ctr.pop()
			res.cycles = append(res.cycles, time.Since(t0))
			if audit {
				r.rt.Audit()
			}
			if time.Since(start) >= d || (until != nil && until()) {
				stop.Store(true)
			}
		}
	}()
	wg.Wait()
	res.wall = time.Since(start)
	return res
}

// settle drops every stream's temporaries and collects twice with the
// mutators parked (the second cycle frees what the first one's snapshot
// kept), leaving exactly the objects the shadows say are reachable.
func (r *rtRun) settle() (live, want int) {
	for _, w := range r.workers {
		for _, o := range w.gen.finish() {
			if w.broken == "" {
				w.apply(&o, false)
			}
		}
		want += w.gen.live()
	}
	r.rt.Collect()
	r.rt.Collect()
	return r.rt.Arena().LiveCount(), want
}

// verify turns a run's end state into checked operations: every op is one
// attempt; stalls, contradictions of the shadow, arena faults, oracle
// findings and a wrong final live count are failures.
func (r *rtRun) verify(rep *report, what string) {
	for i, w := range r.workers {
		rep.Attempted += w.ops
		rep.fail(w.stalls, "%s: mutator %d: %d allocation stalls", what, i, w.stalls)
		if w.waits > 0 {
			rep.note("%s: mutator %d held back for %d polls while the arena was nearly full", what, i, w.waits)
		}
		if w.broken != "" {
			rep.fail(1, "%s: mutator %d stopped: %s", what, i, w.broken)
		}
	}
	live, want := r.settle()
	rep.check(live == want, "%s: %d objects live after a parked double collection, op-stream shadow says %d", what, live, want)
	faults := r.rt.Arena().Faults.Load()
	rep.check(faults == 0, "%s: %d arena faults", what, faults)
	if o := r.rt.Oracle(); o != nil {
		rep.check(o.FindingCount() == 0, "%s: %d oracle findings, first: %v", what, o.FindingCount(), o.Findings())
		rep.note("%s: oracle made %d checks", what, o.Checks())
	}
}

func runRuntime(e *env, s rtShape) (*report, error) {
	rep := newReport(s.name, e.trace)

	var run *rtRun
	setups, err := timeSetups(true, func() (func(), error) {
		var err error
		run, err = s.setUp(e.seed, gcrt.Options{})
		return nil, err
	})
	if err != nil {
		return nil, err
	}

	mem := startMemSampler()
	// rtReps measured repetitions share -seconds, and each reported number
	// is their median: the host speeds up or slows down for seconds at a
	// time, which a median of many short repetitions rides out and a
	// median of a few long ones does not. The discarded warm-up and each
	// oracle slice take a second, or a repetition if shorter.
	repDur := time.Duration(e.seconds) * time.Second / rtReps
	short := min(time.Second, repDur)
	run.phase(short, nil, false, nil)

	// In a traced run the odd repetitions are traced and the even ones
	// are not, which prices the tracing on the same loop.
	var tracers []*tracer
	if e.trace {
		epoch := time.Now()
		for j := 0; j <= len(run.workers); j++ {
			tracers = append(tracers, newTracer(epoch, int64(j)<<40)) // 0 = collector
		}
	}
	var phases []phaseResult
	statsBefore := run.rt.Stats()
	measuredStart := time.Now()
	for i := 0; i < rtReps; i++ {
		var ctr *tracer
		if e.trace && i%2 == 1 {
			ctr = tracers[0]
			for j, w := range run.workers {
				w.trace(tracers[j+1])
			}
		}
		phases = append(phases, run.phase(repDur, ctr, false, nil))
		for _, w := range run.workers {
			w.trace(nil)
		}
	}
	measured := time.Since(measuredStart)
	stats := run.rt.Stats()
	peak := mem.peakMiB()

	var opsPerS, cycleP50 []float64
	var cycles []float64
	for _, p := range phases {
		opsPerS = append(opsPerS, p.opsPerS)
		cycleP50 = append(cycleP50, median(durationsMs(p.cycles)))
		cycles = append(cycles, durationsMs(p.cycles)...)
	}
	rep.note("per repetition: ops/s %.0f, gc cycle p50 %.4f ms", opsPerS, cycleP50)
	var quiescent []float64
	var quiescentMarked int64
	if e.trace {
		// Mark and sweep with no mutator running: both are parked, the
		// collector does their handshake work itself.
		before := run.rt.Stats().Marked
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			run.rt.Collect()
			quiescent = append(quiescent, ms(time.Since(t0)))
		}
		quiescentMarked = (run.rt.Stats().Marked - before) / 5
	}
	run.verify(rep, s.name)

	// The oracles must bite: the same shape under the online oracle finds
	// nothing, and the live-graph shape without its deletion barrier is
	// caught. If the ablation goes unnoticed the checks above prove
	// nothing, and the run fails as vacuous.
	if err := oracleSlices(e, rep, s, short); err != nil {
		return nil, err
	}

	if !e.trace {
		rep.set("setup_s", median(setups))
		rep.set("work_per_s", median(opsPerS))
		rep.set("op_p50_ms", median(cycleP50))
		rep.set("peak_mem_mb", peak)
		rep.alias("mutator_ops_per_s", "ops/s", median(opsPerS))
		rep.alias("gc_cycle_p50_ms", "ms", median(cycleP50))
		return rep, nil
	}

	var allocs, stores, stalls int64
	for _, w := range run.workers {
		allocs += w.allocs
		stores += w.stores
		stalls += w.stalls
	}
	d := func(a, b int64) float64 { return float64(a - b) }
	ncycles := d(stats.Cycles, statsBefore.Cycles)
	merged := mergeKinds(tracers...)
	agg := func(name string) aggRec {
		for _, a := range merged {
			if a.Agg == name {
				return a
			}
		}
		return aggRec{}
	}
	per := func(name string) float64 {
		if a := agg(name); a.Count > 0 {
			return float64(a.TotalNs) / float64(a.Count)
		}
		return 0
	}
	rep.set("gcrt.alloc_ns", per("gcrt.Mutator.Alloc"))
	rep.set("gcrt.store_ns", per("gcrt.Mutator.Store"))
	rep.set("gcrt.load_ns", per("gcrt.Mutator.Load"))
	rep.set("gcrt.discard_ns", per("gcrt.Mutator.Discard"))
	rep.set("gcrt.safepoint_idle_ns", per("gcrt.Mutator.SafePoint"))
	var polls []float64
	for _, tr := range tracers[1:] {
		polls = append(polls, durationsMs(tr.kind("gcrt.Mutator.SafePoint").durs)...)
		polls = append(polls, durationsMs(tr.kind("gcrt.Mutator.SafePoint.handshake").durs)...)
	}
	if len(polls) > 0 {
		rep.set("gcrt.safepoint_p99_us", 1000*quantile(polls, 0.99))
	}
	var maxPause time.Duration
	for _, w := range run.workers {
		if p := w.m.MaxPause(); p > maxPause {
			maxPause = p
		}
	}
	rep.set("gcrt.max_pause_us", float64(maxPause)/1e3)
	if allocs > 0 {
		rep.set("gcrt.tlab_refills_per_kalloc", 1000*float64(run.rt.Stats().TLABRefills)/float64(allocs))
	}
	rep.set("gcrt.alloc_stalls", float64(stalls))
	if stores > 0 {
		rep.set("gcrt.barrier_buffered_per_kstore", 1000*float64(run.rt.Stats().BarrierBuffered)/float64(stores))
	}
	rep.set("gcrt.barrier_flushes", d(stats.BarrierFlushes, statsBefore.BarrierFlushes))
	if hs := d(stats.Handshakes, statsBefore.Handshakes); hs > 0 {
		rep.set("gcrt.handshake_mean_us", float64(stats.HandshakeTime-statsBefore.HandshakeTime)/1e3/hs)
		rep.set("gcrt.handshakes_per_cycle", hs/ncycles)
	}
	rep.set("gcrt.handshake_p99_us", float64(stats.HandshakeP99)/1e3)
	rep.set("gcrt.marked_per_cycle", d(stats.Marked, statsBefore.Marked)/ncycles)
	if marks := d(stats.MarkCAS, statsBefore.MarkCAS) + d(stats.MarkFast, statsBefore.MarkFast); marks > 0 {
		rep.set("gcrt.mark_cas_ratio", d(stats.MarkCAS, statsBefore.MarkCAS)/marks)
	}
	rep.set("gcrt.steals", d(stats.Steals, statsBefore.Steals))
	rep.set("gcrt.quiescent_cycle_ms", median(quiescent))
	if quiescentMarked > 0 {
		rep.set("gcrt.mark_sweep_ns_per_object", 1e6*median(quiescent)/float64(quiescentMarked))
	}
	rep.set("gcrt.gc_cycle_p99_ms", quantile(cycles, 0.99))
	rep.set("gcrt.cycles", ncycles)
	rep.set("gcrt.freed_per_cycle", d(stats.Freed, statsBefore.Freed)/ncycles)
	rep.set("gcrt.collector_busy_share", (stats.CycleTime-statsBefore.CycleTime).Seconds()/measured.Seconds())

	var tracedOps, untracedOps []float64
	var tracedWall time.Duration
	for i, p := range phases {
		if i%2 == 1 {
			tracedOps = append(tracedOps, p.opsPerS)
			tracedWall += p.wall
		} else {
			untracedOps = append(untracedOps, p.opsPerS)
		}
	}
	rep.set("trace.overhead_pct", 100*(median(untracedOps)-median(tracedOps))/median(untracedOps))
	// Self-time coverage of the collector's loop: it does nothing but
	// cycle, so its spans should cover the traced repetitions.
	rep.set("trace.self_time_coverage", float64(agg("gcrt.Runtime.Collect").SelfNs)/float64(tracedWall))
	rep.note("median ops/s: untraced repetitions %.0f, traced %.0f", median(untracedOps), median(tracedOps))
	rep.Notes = append(rep.Notes, selfShares(merged)...)
	if err := writeTrace(e.tracePath, tracers...); err != nil {
		return nil, err
	}
	rep.note("trace written to %s", e.tracePath)
	return rep, nil
}

// oracleSlices runs the two oracle-enabled slices after the timed run:
// the workload's own shape for d, which must be clean, and the live-graph
// shape with the deletion barrier ablated, which must not be (it is given
// three seconds and stops at the first finding).
func oracleSlices(e *env, rep *report, s rtShape, d time.Duration) error {
	clean, err := s.setUp(e.seed, gcrt.Options{})
	if err != nil {
		return err
	}
	clean.rt.EnableOracle(gcrt.OracleOptions{})
	clean.phase(d, nil, true, nil)
	clean.verify(rep, s.name+" under the oracle")

	ablated, err := liveGraphShape.setUp(e.seed, gcrt.Options{NoDeletionBarrier: true})
	if err != nil {
		return err
	}
	o := ablated.rt.EnableOracle(gcrt.OracleOptions{})
	caught := func() bool { return o.FindingCount() > 0 || ablated.rt.Arena().Faults.Load() > 0 }
	ablated.phase(3*time.Second, nil, true, caught)
	for _, w := range ablated.workers {
		if w.broken != "" {
			rep.note("negative control: mutator stopped: %s", w.broken)
		}
	}
	rep.check(caught(), "negative control: %s without its deletion barrier ran %d cycles with no oracle finding and no arena fault: the rt-* correctness checks are vacuous",
		liveGraphShape.name, ablated.rt.Stats().Cycles)
	rep.note("negative control (no deletion barrier): %d oracle findings, %d arena faults after %d cycles",
		o.FindingCount(), ablated.rt.Arena().Faults.Load(), ablated.rt.Stats().Cycles)
	return nil
}
