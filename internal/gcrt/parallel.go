package gcrt

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file implements the multi-threaded-collector extension the paper
// sketches (§1): "The collector we model runs concurrently with mutator
// threads, but is not in itself parallel. Our model (and implementation)
// could, with some effort, be extended to a multi-threaded collector."
//
// With Options.MarkWorkers > 1, the mark loop's tracing is performed by
// a pool of workers, each owning a Chase–Lev work-stealing deque
// (deque.go): a worker scans objects popped from its own deque, pushes
// the greys it discovers locally, and steals from its siblings when it
// runs dry. A shared mutex-protected overflow list absorbs pushes that
// overflow a fixed-capacity deque; workers fall back to it after a
// failed round of steals.
//
// The design leans on exactly the properties the verification
// establishes for the single-threaded collector: marking is a CAS race
// with one winner (Figure 5), so two workers tracing the same object
// cannot double-add it to a work-list, and work-list entries are
// exclusively owned, so deque items are processed exactly once. The
// handshake structure is untouched — the collector control thread still
// runs the Figure 2 cycle.
//
// Termination uses an item-conservation counter: `pending` counts
// objects that have been enqueued (anywhere) but not yet fully scanned.
// A worker increments it before publishing a child and decrements it
// only after the scan of an object completes, so pending can reach zero
// only when every deque and the overflow list are empty and no scan is
// in flight.

// traceDequeCap bounds each worker's deque; overflow spills to a shared
// list. 8192 entries = 32 KiB per worker.
const traceDequeCap = 1 << 13

// traceState is the shared state of one parallel trace.
type traceState struct {
	deques []*wsDeque // gcrt:guard immutable

	ovMu     sync.Mutex // gcrt:guard atomic
	overflow []Obj      // gcrt:guard by(ovMu)

	pending atomic.Int64 // gcrt:guard atomic

	// failed flips when a worker panics, so the siblings stop instead
	// of spinning on a conservation counter that will never drain; the
	// first panic value is kept for traceAll to re-raise.
	failed   atomic.Bool // gcrt:guard atomic
	panicVal any         // gcrt:guard by(ovMu)
}

// noteFailure records a worker panic: first value wins, and the failed
// flag releases the idle loops.
func (st *traceState) noteFailure(r any) {
	st.ovMu.Lock()
	if st.panicVal == nil {
		st.panicVal = r
	}
	st.ovMu.Unlock()
	st.failed.Store(true)
}

// spill pushes v to the shared overflow list.
func (st *traceState) spill(v Obj) {
	st.ovMu.Lock()
	st.overflow = append(st.overflow, v)
	st.ovMu.Unlock()
}

// fromOverflow pops one object from the shared overflow list.
func (st *traceState) fromOverflow() (Obj, bool) {
	st.ovMu.Lock()
	n := len(st.overflow)
	if n == 0 {
		st.ovMu.Unlock()
		return NilObj, false
	}
	v := st.overflow[n-1]
	st.overflow = st.overflow[:n-1]
	st.ovMu.Unlock()
	return v, true
}

// traceAll drains the work queue, tracing children, until no work
// remains; with workers > 1 the tracing is parallel over work-stealing
// deques. It publishes the trace's counts and returns the number of
// objects scanned.
func (rt *Runtime) traceAll(workers int) int {
	var c counts
	if workers <= 1 {
		c = rt.traceSerial()
	} else {
		c = rt.traceParallel(workers)
	}
	rt.stats.publish(&c)
	return int(c.scanned)
}

// traceParallel is traceAll's parallel trace. Each worker counts in its
// own locals; the sum is the trace's counts.
func (rt *Runtime) traceParallel(workers int) counts {
	work := rt.drainQueue()
	if len(work) == 0 {
		return counts{}
	}
	st := &traceState{deques: make([]*wsDeque, workers)}
	for w := range st.deques {
		st.deques[w] = newWSDeque(traceDequeCap)
	}
	// Seed the deques round-robin before any worker starts; conservation
	// counter first so no worker can observe pending==0 spuriously.
	st.pending.Add(int64(len(work)))
	for i, o := range work {
		if !st.deques[i%workers].push(o) {
			st.spill(o)
		}
	}

	perWorker := make([]counts, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			// Contain worker panics: without this, one worker dying
			// leaves pending above zero and the siblings spin forever.
			// The panic is re-raised on the collector thread below.
			defer func() {
				if r := recover(); r != nil {
					st.noteFailure(r)
				}
			}()
			perWorker[self] = rt.traceWorker(st, self)
		}(w)
	}
	wg.Wait()
	if st.failed.Load() {
		st.ovMu.Lock()
		r := st.panicVal
		st.ovMu.Unlock()
		panic(r)
	}
	var c counts
	for w := range perWorker {
		c.add(&perWorker[w])
	}
	return c
}

// traceWorker runs one tracer: pop locally, steal on empty, fall back
// to the overflow list, and exit when the conservation counter says the
// whole trace is drained. It returns what it counted.
func (rt *Runtime) traceWorker(st *traceState, self int) counts {
	own := st.deques[self]
	nw := len(st.deques)
	var c counts
	var scratch []Obj
	for {
		v, ok := own.pop()
		if !ok {
			// Steal round: start from a neighbor to avoid convoys.
			for i := 1; i < nw && !ok; i++ {
				v, ok = st.deques[(self+i)%nw].steal()
				if ok {
					c.steals++
				}
			}
		}
		if !ok {
			v, ok = st.fromOverflow()
		}
		if !ok {
			if st.pending.Load() == 0 || st.failed.Load() {
				return c
			}
			runtime.Gosched()
			continue
		}

		scratch = scratch[:0]
		for f := 0; f < rt.arena.NumFields(); f++ {
			child := rt.arena.LoadField(v, f)
			if child != NilObj {
				rt.mark(child, &scratch, &c)
			}
		}
		if len(scratch) > 0 {
			st.pending.Add(int64(len(scratch)))
			for _, g := range scratch {
				if !own.push(g) {
					st.spill(g)
				}
			}
		}
		c.scanned++
		st.pending.Add(-1)
	}
}

// traceSerial is the single-threaded tracing the paper verifies.
func (rt *Runtime) traceSerial() counts {
	var c counts
	work := rt.drainQueue()
	var scratch []Obj
	for len(work) > 0 {
		src := work[len(work)-1]
		work = work[:len(work)-1]
		for f := 0; f < rt.arena.NumFields(); f++ {
			child := rt.arena.LoadField(src, f)
			if child == NilObj {
				continue
			}
			scratch = scratch[:0]
			rt.mark(child, &scratch, &c)
			work = append(work, scratch...)
		}
		c.scanned++
	}
	return c
}
