// gcrt-demo drives the executable collector kernel: mutator goroutines
// run one of the adversarial workload shapes (deeplist, widetree,
// cycles, churn, pipeline) against a shared arena while the collector
// cycles on-the-fly with the online invariant oracle attached, and the
// demo reports the oracle's checks, the runtime's counters, and any
// findings. It exits 1 if the oracle or the arena saw a lost object.
//
// Usage:
//
//	gcrt-demo -mutators 4 -slots 4096 -cycles 20
//	gcrt-demo -shape widetree -seed 7
//	gcrt-demo -shape deeplist -no-deletion-barrier   # expect findings
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/buildinfo"
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
		name    = flag.String("shape", "churn", "workload shape: deeplist|widetree|cycles|churn|pipeline")
		seed    = flag.Int64("seed", 1, "workload generator seed")
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

	var shape workload.Shape
	found := false
	for _, s := range workload.Shapes {
		if s.String() == *name {
			shape, found = s, true
		}
	}
	if !found {
		fmt.Fprintf(os.Stderr, "gcrt-demo: unknown shape %q\n", *name)
		os.Exit(2)
	}

	res := workload.Run(workload.Config{
		Shape:    shape,
		Mutators: *nMut,
		Slots:    *slots,
		Fields:   *fields,
		Seed:     *seed,
		Cycles:   *cycles,
		Runtime: gcrt.Options{
			MarkWorkers:        *workers,
			NoDeletionBarrier:  *noDel,
			NoInsertionBarrier: *noIns,
			AllocWhite:         *allocW,
		},
		Oracle: gcrt.OracleOptions{SampleEvery: 1},
	})

	fmt.Printf("shape=%s seed=%d mutators=%d cycles=%d\n", shape, *seed, *nMut, *cycles)
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
