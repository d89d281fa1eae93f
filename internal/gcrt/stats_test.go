package gcrt

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// Counter tests: the totals Stats reports are exact once the mutators are
// parked, and no total ever goes backwards while a run is in flight. Run
// with -race: a counter that one goroutine writes and Stats reads without
// an atomic is a reported race.

// chainLen is the length of the live chain each mutator holds, so every
// cycle has at least chainLen objects per mutator to mark.
const chainLen = 64

// storeWhileCollecting seeds each mutator with a live chain (root 0,
// linked through field 0), then runs every mutator loading, allocating
// and storing into field 1 concurrently while collect runs cycles times
// on the caller's goroutine, each cycle starting only after the mutators
// have stored again. It returns with the mutators parked.
func storeWhileCollecting(t *testing.T, rt *Runtime, collect func() int, cycles int) {
	t.Helper()
	for i := 0; i < rt.NumMutators(); i++ {
		m := rt.Mutator(i)
		prev := m.Alloc()
		for j := 1; j < chainLen; j++ {
			next := m.Alloc()
			if next < 0 {
				t.Fatal("arena too small for the seeded chains")
			}
			m.Store(prev, 0, next)
			prev = next
		}
		for m.NumRoots() > 1 {
			m.Discard(m.NumRoots() - 1)
		}
	}

	var stop atomic.Bool
	var stores atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < rt.NumMutators(); i++ {
		m := rt.Mutator(i)
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			defer m.Park()
			rng := rand.New(rand.NewSource(seed))
			for step := 0; !stop.Load(); step++ {
				switch n := m.NumRoots(); {
				case n > 8:
					m.Discard(1 + rng.Intn(n-1)) // root 0 holds the chain
				case rng.Intn(4) == 0:
					m.Alloc()
				default:
					m.Load(rng.Intn(n), rng.Intn(2))
				}
				n := m.NumRoots()
				m.Store(rng.Intn(n), 1, rng.Intn(n)) // field 0 keeps the chain
				stores.Add(1)
				m.SafePoint()
				if step%16 == 0 {
					runtime.Gosched()
				}
			}
		}(int64(i) + 1)
	}
	for c := 0; c < cycles; c++ {
		for want := stores.Load() + 64; stores.Load() < want; {
			runtime.Gosched()
		}
		collect()
	}
	stop.Store(true)
	wg.Wait()
}

// TestStatsCountsExact: with the mutators parked, every object a mark won
// was scanned exactly once, every won mark attempted its CAS, and each
// cycle marked at least the seeded chains — under every collector and
// barrier mode, with the mutators storing concurrently throughout.
func TestStatsCountsExact(t *testing.T) {
	const cycles = 12
	for _, tc := range []struct {
		name    string
		opt     Options
		collect func(*Runtime) int
	}{
		{"Collect/MarkWorkers=0", Options{}, (*Runtime).Collect},
		{"Collect/MarkWorkers=4", Options{MarkWorkers: 4}, (*Runtime).Collect},
		{"Collect/BarrierBuffer=-1", Options{BarrierBuffer: -1}, (*Runtime).Collect},
		{"collectRescan", Options{NoDeletionBarrier: true}, collectRescan},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := tc.opt
			opt.Slots, opt.Fields, opt.Mutators = 4096, 2, 2
			rt := New(opt)
			storeWhileCollecting(t, rt, func() int { return tc.collect(rt) }, cycles)
			s := rt.Stats()
			if s.Cycles != cycles {
				t.Fatalf("cycles = %d, want %d", s.Cycles, cycles)
			}
			if floor := int64(cycles * opt.Mutators * chainLen); s.Marked < floor {
				t.Fatalf("marked = %d, want at least the chains every cycle (%d): %v", s.Marked, floor, s)
			}
			if s.Marked != s.Scanned {
				t.Fatalf("marked = %d, scanned = %d: every won mark is scanned exactly once: %v", s.Marked, s.Scanned, s)
			}
			if s.MarkCAS < s.Marked {
				t.Fatalf("markCAS = %d < marked = %d: %v", s.MarkCAS, s.Marked, s)
			}
			if f := rt.Arena().Faults.Load(); f != 0 {
				t.Fatalf("%d arena faults", f)
			}
		})
	}
}

// totals lists the snapshot's cumulative fields by name; the latency
// percentiles are not totals.
func totals(s StatsSnapshot) map[string]int64 {
	v := reflect.ValueOf(s)
	out := make(map[string]int64, v.NumField())
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		if strings.HasSuffix(name, "P50") || strings.HasSuffix(name, "P99") {
			continue
		}
		out[name] = v.Field(i).Int()
	}
	return out
}

// TestStatsNonDecreasingUnderConcurrentReads polls Stats from a goroutine
// of its own for the whole of a run with parallel marking: no total may
// ever read lower than it did before.
func TestStatsNonDecreasingUnderConcurrentReads(t *testing.T) {
	rt := New(Options{Slots: 4096, Fields: 2, Mutators: 2, MarkWorkers: 2})
	done := make(chan struct{})
	polls := make(chan int)
	go func() {
		n := 0
		defer func() { polls <- n }()
		prev := totals(rt.Stats())
		for {
			select {
			case <-done:
				return
			default:
			}
			cur := totals(rt.Stats())
			for name, v := range cur {
				if v < prev[name] {
					t.Errorf("%s went from %d to %d", name, prev[name], v)
					return
				}
			}
			prev = cur
			n++
			runtime.Gosched()
		}
	}()
	storeWhileCollecting(t, rt, rt.Collect, 12)
	close(done)
	if n := <-polls; n == 0 {
		t.Fatal("the poller never read the counters during the run")
	}
}

func TestStatsStringPrintsEveryField(t *testing.T) {
	var s StatsSnapshot
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(int64(1001 + i))
	}
	out := s.String() + " "
	for i := 0; i < v.NumField(); i++ {
		if want := fmt.Sprintf("=%v ", v.Field(i).Interface()); !strings.Contains(out, want) {
			t.Errorf("String() omits %s (%s): %s", v.Type().Field(i).Name, want, out)
		}
	}
}
