package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metricDef declares one metric: BENCHMARK.json lists exactly these (the
// smoke test compares the two), and the README dictionary is their prose.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change is a regression; 0 for per-layer
	// metrics, which are reported and never gated.
	Bound float64
}

// endToEnd is what a user of the system sees, defined on every workload.
// The issue's workload-specific names are the same measurements restated
// per family; a run prints them as aliases and the README maps one to the
// other. One bound serves all six workloads, so each is set by the
// noisiest of them on this host (rt-livegraph, whose two mutators and
// collector trade cache lines across cores); README.md has the measured
// spread of every workload for anyone who needs a tighter reading.
var endToEnd = []metricDef{
	// work_per_s: states/s on checker workloads, jobs/s over the miss
	// phase on svc-corpus, mutator ops/s on rt-*.
	{"work_per_s", "1/s", "higher", 0.25},
	// op_p50_ms: one verdict (checker, a single sample), one miss
	// submit-to-verdict (svc-corpus), one rt.Collect() (rt-*).
	{"op_p50_ms", "ms", "lower", 0.25},
	{"peak_mem_mb", "MiB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is the -trace run's output. A metric whose layer the workload
// does not exercise reads 0 there: that is the issue's "—" prediction.
var perLayer = []metricDef{
	{"gcmodel.successors_ns_per_state", "ns", "lower", 0},
	{"gcmodel.successors_allocs_per_state", "count", "lower", 0},
	{"gcmodel.successors_bytes_per_state", "B", "lower", 0},
	{"gcmodel.branching", "count", "lower", 0},
	{"gcmodel.fingerprint_ns_per_transition", "ns", "lower", 0},
	{"gcmodel.fingerprint_bytes_per_state", "B", "lower", 0},
	{"gcmodel.hash_ns_per_transition", "ns", "lower", 0},
	{"gcmodel.ample_ns_per_state", "ns", "lower", 0},
	{"gcmodel.ample_taken_ratio", "ratio", "lower", 0},
	{"gcmodel.encode_ns_per_state", "ns", "lower", 0},
	{"gcmodel.decode_ns_per_state", "ns", "lower", 0},
	{"cimp.tau_step_ns", "ns", "lower", 0},
	{"invariant.view_ns_per_state", "ns", "lower", 0},
	{"invariant.battery_ns_per_state", "ns", "lower", 0},
	{"explore.states", "count", "lower", 0},
	{"explore.transitions", "count", "lower", 0},
	{"explore.depth", "count", "lower", 0},
	{"explore.dedup_ratio", "ratio", "higher", 0},
	{"explore.states_per_s", "1/s", "higher", 0},
	{"explore.visited_bytes_per_state", "B", "lower", 0},
	{"explore.residual_ns_per_transition", "ns", "lower", 0},
	{"explore.parallel_speedup", "ratio", "higher", 0},
	{"explore.cex_render_ms", "ms", "lower", 0},
	{"liveness.check_s", "s", "lower", 0},
	{"liveness.states_per_s", "1/s", "higher", 0},
	{"liveness.graph_bytes", "B", "lower", 0},
	{"checkpoint.bytes", "B", "lower", 0},
	{"checkpoint.save_ms", "ms", "lower", 0},
	{"checkpoint.load_ms", "ms", "lower", 0},
	{"server.overhead_ms_per_job", "ms", "lower", 0},
	{"server.submit_rpc_p50_ms", "ms", "lower", 0},
	{"server.queue_wait_p50_ms", "ms", "lower", 0},
	{"server.run_p50_ms", "ms", "lower", 0},
	{"server.client_tail_p50_ms", "ms", "lower", 0},
	{"server.cache_hit_p50_ms", "ms", "lower", 0},
	{"server.cache_hit_p99_ms", "ms", "lower", 0},
	{"server.cache_hits", "count", "higher", 0},
	{"server.cache_misses", "count", "lower", 0},
	{"server.job_retries", "count", "lower", 0},
	{"server.storage_errors", "count", "lower", 0},
	{"gcrt.alloc_ns", "ns", "lower", 0},
	{"gcrt.tlab_refills_per_kalloc", "count", "lower", 0},
	{"gcrt.alloc_stalls", "count", "lower", 0},
	{"gcrt.store_ns", "ns", "lower", 0},
	{"gcrt.load_ns", "ns", "lower", 0},
	{"gcrt.discard_ns", "ns", "lower", 0},
	{"gcrt.barrier_buffered_per_kstore", "count", "lower", 0},
	{"gcrt.barrier_flushes", "count", "lower", 0},
	{"gcrt.safepoint_idle_ns", "ns", "lower", 0},
	{"gcrt.safepoint_p99_us", "us", "lower", 0},
	{"gcrt.max_pause_us", "us", "lower", 0},
	{"gcrt.handshake_mean_us", "us", "lower", 0},
	{"gcrt.handshake_p99_us", "us", "lower", 0},
	{"gcrt.handshakes_per_cycle", "count", "lower", 0},
	{"gcrt.marked_per_cycle", "count", "lower", 0},
	{"gcrt.mark_cas_ratio", "ratio", "lower", 0},
	{"gcrt.steals", "count", "higher", 0},
	{"gcrt.quiescent_cycle_ms", "ms", "lower", 0},
	{"gcrt.mark_sweep_ns_per_object", "ns", "lower", 0},
	{"gcrt.gc_cycle_p99_ms", "ms", "lower", 0},
	{"gcrt.cycles", "count", "higher", 0},
	{"gcrt.freed_per_cycle", "count", "higher", 0},
	{"gcrt.collector_busy_share", "ratio", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	{"trace.self_time_coverage", "ratio", "higher", 0},
}

// exactCounts are the per-layer metrics that must repeat exactly between
// two runs of the same code (the -repeat mode and the smoke test check
// it): a change in one of them means the transition relation or the
// cache behaviour changed, not the speed.
var exactCounts = []string{
	"explore.states", "explore.transitions", "explore.depth",
	"gcmodel.branching", "server.cache_hits", "server.cache_misses",
}

// report is what one workload run produces.
type report struct {
	Workload  string
	Attempted int64
	Failed    int64
	// Failures explains each failed operation (capped; Failed counts all).
	Failures []string
	// Metrics holds the contract metrics of this run: every end-to-end
	// name without tracing, every per-layer name with it.
	Metrics map[string]float64
	// Aliases are the issue's workload-specific end-to-end names, printed
	// for humans next to the contract metrics they restate.
	Aliases []alias
	// Notes are free-form lines for the human report.
	Notes []string
	Wall  time.Duration
}

type alias struct {
	Name, Unit string
	Value      float64
}

func newReport(workload string, trace bool) *report {
	r := &report{Workload: workload, Metrics: map[string]float64{}}
	if trace {
		for _, d := range perLayer {
			r.Metrics[d.Name] = 0
		}
	}
	return r
}

// fail records n failed operations with one explanation.
func (r *report) fail(n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.Failed += n
	if len(r.Failures) < 40 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// check counts one attempted operation and fails it unless ok.
func (r *report) check(ok bool, format string, args ...any) bool {
	r.Attempted++
	if !ok {
		r.fail(1, format, args...)
	}
	return ok
}

func (r *report) set(name string, v float64) { r.Metrics[name] = v }

func (r *report) alias(name, unit string, v float64) {
	r.Aliases = append(r.Aliases, alias{name, unit, v})
}

func (r *report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// quantile returns the q-quantile (0..1) of vs by linear interpolation
// between order statistics; NaN for an empty sample.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// quartiles mirrors Python's statistics.quantiles(vs, n=4) (the exclusive
// method), which is how the PR driver computes a metric's spread.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		switch {
		case j < 1:
			return s[0]
		case j >= n:
			return s[n-1]
		}
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	return at(1), at(2), at(3)
}

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
