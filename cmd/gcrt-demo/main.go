// gcrt-demo drives the executable collector kernel: mutator goroutines
// churn a shared arena while the collector cycles on-the-fly, and the
// demo reports reclamation, barrier, and handshake-latency statistics.
//
// With -shape it runs one of the adversarial workload generators
// (deeplist, widetree, cycles, churn, pipeline) with the online
// invariant oracle attached; without it, a simple random churn loop.
//
// Usage:
//
//	gcrt-demo -mutators 4 -slots 4096 -cycles 20
//	gcrt-demo -shape churn -seed 7 -oracle
//	gcrt-demo -shape deeplist -no-deletion-barrier -oracle   # expect findings
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"repro/internal/buildinfo"
	"runtime"
	"sync"

	"repro/internal/gcrt"
	"repro/internal/gcrt/workload"
)

func main() {
	var (
		nMut    = flag.Int("mutators", 4, "mutator goroutines")
		slots   = flag.Int("slots", 4096, "arena slots")
		fields  = flag.Int("fields", 2, "fields per object")
		cycles  = flag.Int("cycles", 20, "collection cycles to run")
		workers = flag.Int("mark-workers", 1, "parallel tracing workers (work-stealing deques)")
		shape   = flag.String("shape", "", "workload shape: deeplist|widetree|cycles|churn|pipeline (empty = simple churn loop)")
		seed    = flag.Int64("seed", 1, "workload generator seed")
		oracle  = flag.Bool("oracle", false, "attach the online invariant oracle (implied by -shape)")
		noDel   = flag.Bool("no-deletion-barrier", false, "ablate the deletion barrier (expect faults/findings)")
		noIns   = flag.Bool("no-insertion-barrier", false, "ablate the insertion barrier")
		allocW  = flag.Bool("alloc-white", false, "ablate black allocation (allocate unmarked in every phase)")
		version = flag.Bool("version", false, "print build identity and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String())
		return
	}

	opt := gcrt.Options{
		Slots: *slots, Fields: *fields, Mutators: *nMut,
		MarkWorkers:        *workers,
		NoDeletionBarrier:  *noDel,
		NoInsertionBarrier: *noIns,
		AllocWhite:         *allocW,
	}

	if *shape != "" {
		runWorkload(*shape, *seed, *cycles, *nMut, *slots, *fields, opt)
		return
	}

	rt := gcrt.New(opt)
	var o *gcrt.Oracle
	if *oracle {
		o = rt.EnableOracle(gcrt.OracleOptions{SampleEvery: 1})
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < *nMut; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			m := rt.Mutator(id)
			rng := rand.New(rand.NewSource(int64(id) + 1))
			m.Alloc()
			for {
				select {
				case <-stop:
					m.Park()
					return
				default:
				}
				// Keep a persistent working set of roots; when the arena
				// is exhausted, sit at safe points until the collector
				// replenishes the free list (an allocation stall).
				n := m.NumRoots()
				switch {
				case n < 4:
					if m.Alloc() == -1 {
						m.SafePoint()
					}
				case n > 32:
					m.Discard(rng.Intn(n))
				default:
					switch rng.Intn(4) {
					case 0:
						m.Alloc()
					case 1:
						m.Load(rng.Intn(n), rng.Intn(*fields))
					case 2:
						dst := rng.Intn(n)
						if rng.Intn(4) == 0 {
							dst = -1
						}
						m.Store(rng.Intn(n), rng.Intn(*fields), dst)
					case 3:
						if n > 4 {
							m.Discard(rng.Intn(n))
						}
					}
				}
				m.SafePoint()
				// Yield so the collector advances between handshake rounds
				// even on GOMAXPROCS=1 (cf. the workload interpreter).
				runtime.Gosched()
			}
		}(i)
	}

	for c := 0; c < *cycles; c++ {
		freed := rt.Collect()
		fmt.Printf("cycle %2d: freed %4d, live %4d/%d\n",
			c+1, freed, rt.Arena().LiveCount(), *slots)
		if o != nil {
			rt.Audit()
		}
	}
	close(stop)
	wg.Wait()

	fmt.Println()
	fmt.Println("stats:", rt.Stats())
	fail := false
	if f := rt.Arena().Faults.Load(); f > 0 {
		fmt.Printf("LOST OBJECTS: %d dead-slot accesses — the ablated collector freed reachable objects\n", f)
		fail = true
	}
	if o != nil && o.FindingCount() > 0 {
		fmt.Printf("ORACLE FINDINGS: %d (%v)\n", o.FindingCount(), o.CountByCheck())
		fail = true
	}
	if fail {
		os.Exit(1)
	}
	fmt.Println("no lost objects: every reachable object survived every cycle")
}

// runWorkload runs one adversarial workload shape with the oracle
// attached and reports the outcome.
func runWorkload(name string, seed int64, cycles, nMut, slots, fields int, opt gcrt.Options) {
	var shape workload.Shape
	found := false
	for _, s := range workload.Shapes {
		if s.String() == name {
			shape, found = s, true
		}
	}
	if !found {
		fmt.Fprintf(os.Stderr, "gcrt-demo: unknown shape %q\n", name)
		os.Exit(2)
	}

	res := workload.Run(workload.Config{
		Shape:    shape,
		Mutators: nMut,
		Slots:    slots,
		Fields:   fields,
		Seed:     seed,
		Cycles:   cycles,
		Runtime:  opt,
		Oracle:   gcrt.OracleOptions{SampleEvery: 1},
	})

	fmt.Printf("shape=%s seed=%d mutators=%d cycles=%d\n", shape, seed, nMut, cycles)
	fmt.Printf("ops=%d checks=%d\n", res.Ops, res.Checks)
	fmt.Println("stats:", res.Stats)
	if res.Clean() {
		fmt.Println("clean: zero oracle findings, zero arena faults")
		return
	}
	fmt.Printf("findings=%d byCheck=%v faults=%d\n", res.Findings, res.ByCheck, res.Faults)
	for _, f := range res.Details {
		fmt.Println("  ", f)
	}
	os.Exit(1)
}
