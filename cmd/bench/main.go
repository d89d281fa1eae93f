// bench is the repository's one benchmark: six named workloads over the
// checker (internal/explore, gcmodel, liveness), the verification service
// (internal/server) and the concurrent runtime (internal/gcrt), each run in
// a fresh process, each checked against a known answer.
//
//	go run ./cmd/bench                      every workload, end-to-end metrics
//	go run ./cmd/bench -trace               every workload, per-layer metrics + trace.ndjson
//	go run ./cmd/bench -repeat 2            A/A: the suite twice, spread against the bounds
//	go run ./cmd/bench --workload rt-churn --seed 7 --seconds 12 --trace 0
//
// The last form is what BENCHMARK.json declares: one workload in this
// process, whose last line of standard output is a JSON object with the
// keys correct, attempted, failed and metrics. README.md is the metric
// dictionary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/buildinfo"
)

// defaultSeconds is BENCHMARK.json's run_seconds: how long the rt-*
// workloads measure. The checker and service workloads run a fixed,
// exhaustively checked job, so their length is the job's.
const defaultSeconds = 12

// outDir holds everything a run writes: service data directories,
// checkpoints and trace files. It is relative to the working directory
// and named in .gitignore.
const outDir = ".bench_out"

// env is what a workload run is given.
type env struct {
	seed    int64
	seconds int
	trace   bool
	// dir is this process's scratch directory under outDir, removed when
	// the run ends; tracePath is where a traced run leaves its spans.
	dir       string
	tracePath string
}

type workloadDef struct {
	name string
	why  string
	run  func(*env) (*report, error)
}

// workloads is the suite, in the order the suite mode runs it.
var workloads = []workloadDef{
	{"safety-tiny", "the headline exhaustive run: successor generation does ~80% of the work, no reduction, no disk",
		func(e *env) (*report, error) { return runChecker(e, safetyTiny) }},
	{"safety-2mut-por", "same layers used differently: ample sets per state, wider two-mutator states, ragged handshakes",
		func(e *env) (*report, error) { return runChecker(e, safety2MutPOR) }},
	{"liveness-tiny-b1", "safety pass then fair-cycle check: the sequential graph build and SCC search are half the wall here and zero elsewhere",
		func(e *env) (*report, error) { return runChecker(e, livenessTinyB1) }},
	{"svc-corpus", "24 short jobs through the service, then 1,200 cache hits: per-job fixed costs dominate instead of the BFS steady state",
		func(e *env) (*report, error) { return runService(e, fullCorpus) }},
	{"rt-churn", "allocation-bound runtime load: TLAB refill, free-list shards and sweep do the work, mark touches a few dozen objects",
		func(e *env) (*report, error) { return runRuntime(e, churnShape) }},
	{"rt-livegraph", "same runtime, opposite use: mark, write barriers and handshake root scans over a 40,000-node live graph, allocation rare",
		func(e *env) (*report, error) { return runRuntime(e, liveGraphShape) }},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "run this one workload in this process (empty = the whole suite, one child process each)")
		seed     = fs.Int64("seed", 1, "seed for the rt-* op streams and the svc-corpus submission order (the checker workloads are exhaustive and ignore it)")
		seconds  = fs.Int("seconds", defaultSeconds, "seconds the rt-* workloads measure")
		trace    = fs.Int("trace", 0, "1 = per-layer metrics and trace.ndjson instead of end-to-end metrics")
		repeat   = fs.Int("repeat", 1, "suite mode: run the whole suite N times and compare the runs against the bounds (A/A)")
		reverse  = fs.Bool("reverse", false, "suite mode: run the workloads in the opposite order")
		version  = fs.Bool("version", false, "print build identity and exit")
	)
	if err := fs.Parse(bareTrace(args)); err != nil {
		return 2
	}
	if *version {
		fmt.Println(buildinfo.String())
		return 0
	}
	if fs.NArg() > 0 || *seconds < 1 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: bad arguments; see -h")
		return 2
	}
	if runtime.GOMAXPROCS(0) < 2 {
		fmt.Fprintln(os.Stderr, "bench: GOMAXPROCS < 2: the rt-* workloads (2 mutators + collector) and explore.parallel_speedup are meaningless on one processor; refusing to run")
		return 2
	}
	warnIfLoaded()

	if *workload == "" {
		return runSuite(suiteOptions{seed: *seed, seconds: *seconds, trace: *trace == 1, repeat: *repeat, reverse: *reverse})
	}
	w := findWorkload(*workload)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}
	e := &env{seed: *seed, seconds: *seconds, trace: *trace == 1}
	e.dir = filepath.Join(outDir, fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	e.tracePath = filepath.Join(outDir, w.name+".trace.ndjson")
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	defer os.RemoveAll(e.dir)
	return runOne(w, e)
}

// bareTrace lets "-trace" stand alone as the issue writes it, while the
// contract's "--trace 0|1" keeps working: a bare flag becomes "-trace=1".
func bareTrace(args []string) []string {
	out := make([]string, 0, len(args))
	for i, a := range args {
		if (a == "-trace" || a == "--trace") && (i+1 == len(args) || (args[i+1] != "0" && args[i+1] != "1")) {
			a = "-trace=1"
		}
		out = append(out, a)
	}
	return out
}

// runOne runs one workload in this process, prints its human report, and
// ends with the contract's JSON line.
func runOne(w *workloadDef, e *env) int {
	for _, l := range hostLines(e.seed) {
		fmt.Println(l)
	}
	fmt.Printf("workload %s trace=%v seconds=%d: %s\n", w.name, e.trace, e.seconds, w.why)
	start := time.Now()
	rep, err := w.run(e)
	if err != nil {
		// The workload could not be measured at all: no result line.
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	rep.Wall = time.Since(start)
	printReport(rep, e.trace)
	line, err := resultJSON(rep, e.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Println(string(line))
	if rep.Failed > 0 {
		return 1
	}
	return 0
}

func printReport(rep *report, trace bool) {
	for _, n := range rep.Notes {
		fmt.Printf("note %s\n", n)
	}
	for _, a := range rep.Aliases {
		fmt.Printf("metric %-18s %-40s %16.6f %s\n", rep.Workload, a.Name, a.Value, a.Unit)
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Printf("metric %-18s %-40s %16.6f %s\n", rep.Workload, d.Name, rep.Metrics[d.Name], d.Unit)
	}
	for _, f := range rep.Failures {
		fmt.Printf("FAILED %s: %s\n", rep.Workload, f)
	}
	fmt.Printf("result %s ops_attempted=%d ops_failed=%d wall=%.2fs\n", rep.Workload, rep.Attempted, rep.Failed, rep.Wall.Seconds())
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultJSON renders the contract's result line; it fails if a declared
// metric was not measured or is not a number.
func resultJSON(rep *report, trace bool) ([]byte, error) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	out := resultLine{Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := rep.Metrics[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	if out.Attempted < 1 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	return json.Marshal(out)
}
