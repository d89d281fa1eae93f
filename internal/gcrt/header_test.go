package gcrt

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Header-word tests: 32 slots share one packed header word, so every
// writer of a slot's two bits must be a read-modify-write of the whole
// word that keeps the other 31 slots' bits. Run with -race.

// TestHeaderWordConcurrentWriters drives every header writer at once on
// distinct slots of one word. An installer goroutine allocates white
// garbage from the free list without pause, as mutators allocate in
// every phase. The test goroutine takes turns, as the collector's mark
// and sweep phases do: it marks and clears the flags of eight slots it
// owns with casFlag, then sweeps the word, returning the garbage to the
// free list. Each writer checks that its own slots hold what it left,
// and the final accounting finds every slot exactly once: a writer that
// stored a recomputed word over another's change would lose an install
// (a leaked slot), resurrect a freed slot (allocated on the free list),
// or undo a mark.
func TestHeaderWordConcurrentWriters(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	rt := New(Options{Slots: slotsPerWord, Fields: 1, Mutators: 1})
	a := rt.arena
	fM := rt.fM.Load()

	// The marker owns slots 24–31, allocated black; the installer and the
	// sweeper pass slots 0–23 between them through the free list.
	all := a.reserveBatch(nil, 0, slotsPerWord)
	var owned, pool []Obj
	for _, o := range all {
		if o >= 24 {
			a.install(o, fM)
			owned = append(owned, o)
		} else {
			pool = append(pool, o)
		}
	}
	a.returnBatch(pool)

	var stop atomic.Bool
	var installs atomic.Int64
	var wg sync.WaitGroup
	halt := func() {
		stop.Store(true)
		wg.Wait()
	}
	defer halt()
	wg.Add(1)
	go func() {
		defer wg.Done()
		var slot []Obj
		for !stop.Load() {
			slot = a.reserveBatch(slot[:0], 0, 1)
			if len(slot) == 0 {
				runtime.Gosched()
				continue
			}
			if alloc, _ := a.header(slot[0]); alloc {
				t.Errorf("free-list slot %d is already allocated", slot[0])
				return
			}
			a.install(slot[0], !fM) // white: garbage for the next sweep
			installs.Add(1)
		}
	}()

	// Run until the installer has done enough work to interleave with
	// every turn; the deadline ends a run whose lost slots starve it.
	freed := 0
	deadline := time.Now().Add(5 * time.Second)
	for round := 0; installs.Load() < 100_000 && time.Now().Before(deadline); round++ {
		for _, o := range owned {
			if !a.casFlag(o, fM, !fM) || !a.casFlag(o, !fM, fM) {
				t.Fatalf("round %d: casFlag on owned slot %d lost its flag", round, o)
			}
		}
		freed += rt.sweep()
		for _, o := range owned {
			if alloc, flag := a.header(o); !alloc || flag != fM {
				t.Fatalf("round %d: owned slot %d reads alloc=%v flag=%v after the sweep", round, o, alloc, flag)
			}
		}
	}
	halt()
	freed += rt.sweep()

	if n := installs.Load(); int64(freed) != n {
		t.Errorf("%d installs, %d frees: an install or a clear was lost", n, freed)
	}
	if n := a.LiveCount(); n != len(owned) {
		t.Errorf("LiveCount = %d, want the %d owned slots", n, len(owned))
	}
	seen := make(map[Obj]bool)
	for _, o := range a.reserveBatch(nil, 0, 2*slotsPerWord) {
		if seen[o] || o >= 24 {
			t.Errorf("slot %d on the free list twice or out of the pool", o)
		}
		seen[o] = true
	}
	if len(seen) != len(pool) {
		t.Errorf("free list holds %d slots, want %d", len(seen), len(pool))
	}
	if f := a.Faults.Load(); f != 0 {
		t.Errorf("%d faults", f)
	}
}

// TestSweepFreesByWord checks the word-at-a-time sweep against a
// slot-by-slot reading of the same headers, across word boundaries and a
// partial last word: it frees exactly the allocated slots at the
// unmarked sense, in slot order, and leaves the rest untouched.
func TestSweepFreesByWord(t *testing.T) {
	const slots = 3*slotsPerWord + 7
	rt := New(Options{Slots: slots, Fields: 1, Mutators: 1})
	a := rt.arena
	fM := rt.fM.Load()
	a.reserveBatch(nil, 0, slots) // every slot off the free list
	var want []Obj
	for o := Obj(0); o < slots; o++ {
		switch o % 3 {
		case 0: // garbage
			a.install(o, !fM)
			want = append(want, o)
		case 1: // survivor
			a.install(o, fM)
		}
		// o%3 == 2 stays reserved, with a clear header.
	}
	got := a.freeUnmarked(fM, nil)
	if len(got) != len(want) {
		t.Fatalf("freed %d slots, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("freed[%d] = %d, want %d (slot order)", i, got[i], want[i])
		}
	}
	for o := Obj(0); o < slots; o++ {
		alloc, flag := a.header(o)
		if wantAlloc := o%3 == 1; alloc != wantAlloc || (alloc && flag != fM) {
			t.Fatalf("slot %d reads alloc=%v flag=%v after the sweep", o, alloc, flag)
		}
	}
}
