package workload

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/gcrt"
)

// Config describes one workload run. The zero value of the sizing
// fields picks defaults; Runtime carries the gcrt tuning and ablation
// switches (its Slots/Fields/Mutators are overridden by this struct's).
type Config struct {
	Shape    Shape
	Mutators int // default 4
	Slots    int // default Mutators*2048
	Fields   int // default 2 (Pipeline: at least 4 hub lanes help)
	Seed     int64

	// Cycles is the number of collect+audit rounds the driver runs
	// (default 10). OpsPerMutator is the generated stream length; the
	// interpreter repeats the stream until the driver stops (default
	// 4096).
	Cycles        int
	OpsPerMutator int

	Runtime gcrt.Options
	Oracle  gcrt.OracleOptions
}

func (cfg Config) mutators() int {
	if cfg.Mutators <= 0 {
		return 4
	}
	return cfg.Mutators
}

func (cfg Config) slots() int {
	if cfg.Slots <= 0 {
		return cfg.mutators() * 2048
	}
	return cfg.Slots
}

func (cfg Config) fields() int {
	if cfg.Fields <= 0 {
		return 2
	}
	return cfg.Fields
}

func (cfg Config) cycles() int {
	if cfg.Cycles <= 0 {
		return 10
	}
	return cfg.Cycles
}

func (cfg Config) opsPerMutator() int {
	if cfg.OpsPerMutator <= 0 {
		return 4096
	}
	return cfg.OpsPerMutator
}

// Result is the outcome of a workload run.
type Result struct {
	// Findings is the oracle's total violation count; ByCheck breaks it
	// down and Details holds the retained finding records.
	Findings int64
	ByCheck  map[string]int64
	Details  []gcrt.Finding
	// Checks is the number of invariant evaluations that ran — the
	// denominator that makes Findings == 0 meaningful.
	Checks int64
	// Faults counts arena accesses to freed slots (use-after-free
	// observed by the heap itself, the hard loss signal).
	Faults int64
	// Ops is the total number of mutator heap operations executed.
	Ops int64
	// Stats is the runtime counter snapshot at the end of the run.
	Stats gcrt.StatsSnapshot
}

// Clean reports whether the run produced no violations of any kind.
func (r Result) Clean() bool { return r.Findings == 0 && r.Faults == 0 }

// Run executes cfg: it builds the runtime with the oracle attached,
// drives every mutator through its generated op stream (repeating the
// stream until the driver stops), and runs cfg.Cycles() collect+audit
// rounds against them. RunProgram allows a pre-shrunk program.
func Run(cfg Config) Result {
	return RunProgram(cfg, NewProgram(cfg))
}

// RunProgram executes an explicit program (one op stream per mutator,
// normally from NewProgram or Shrink) under cfg's runtime settings.
func RunProgram(cfg Config, prog [][]Op) Result {
	opt := cfg.Runtime
	opt.Slots = cfg.Slots
	if opt.Slots <= 0 {
		opt.Slots = len(prog) * 2048
	}
	opt.Fields = cfg.fields()
	opt.Mutators = len(prog)
	rt := gcrt.New(opt)
	o := rt.EnableOracle(cfg.Oracle)

	// Pipeline: mutator 0 allocates the shared hub and every mutator
	// adopts it into register 0 before concurrency starts.
	hubRoots := make([]int, len(prog))
	for i := range hubRoots {
		hubRoots[i] = -1
	}
	if cfg.Shape == Pipeline {
		m0 := rt.Mutator(0)
		hubRoots[0] = m0.Alloc()
		if hubRoots[0] >= 0 {
			hub := m0.Root(hubRoots[0])
			for i := 1; i < len(prog); i++ {
				hubRoots[i] = rt.Mutator(i).AdoptRoot(hub)
			}
		}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := range prog {
		i := i
		m := rt.Mutator(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			it := newInterp(m)
			if hubRoots[i] >= 0 {
				it.set(0, hubRoots[i])
			}
			for !stop.Load() {
				if len(prog[i]) == 0 {
					// A fully shrunk stream still has to service
					// handshakes or the driver's collections deadlock.
					m.SafePoint()
					runtime.Gosched()
					continue
				}
				for _, op := range prog[i] {
					it.step(op)
					if stop.Load() {
						break
					}
				}
			}
			// Exit parked: the driver's final audit (and any still-running
			// handshake) completes collector-side.
			m.Park()
		}()
	}

	for c := 0; c < cfg.cycles(); c++ {
		rt.Collect()
		rt.Audit()
	}
	stop.Store(true)
	wg.Wait()
	rt.Audit() // final audit over the parked world

	var ops int64
	for i := 0; i < rt.NumMutators(); i++ {
		ops += rt.Mutator(i).Ops()
	}
	return Result{
		Findings: o.FindingCount(),
		ByCheck:  o.CountByCheck(),
		Details:  o.Findings(),
		Checks:   o.Checks(),
		Faults:   rt.Arena().Faults.Load(),
		Ops:      ops,
		Stats:    rt.Stats(),
	}
}
