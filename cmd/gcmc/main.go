// gcmc model-checks the collector model: it explores every reachable
// state of a bounded configuration of GC ∥ M1 ∥ … ∥ Mn ∥ Sys over
// x86-TSO and checks the paper's safety invariants at each one,
// printing a counterexample trace on violation. With -liveness it
// additionally runs the fair-cycle detector over the same state graph
// and reports a verdict per progress property, with lasso-shaped
// counterexamples.
//
// Usage:
//
//	gcmc [flags]
//
// Examples:
//
//	gcmc -preset tiny                     # verify the headline theorem
//	gcmc -preset tiny -no-deletion-barrier  # reproduce the lost-object bug
//	gcmc -preset tiny -liveness           # also check progress properties
//	gcmc -preset tiny -liveness -mute-handshake  # find a fair cycle
//	gcmc -mutators 2 -refs 2 -budget 1    # custom configuration
//	gcmc -preset tiny -json               # machine-readable verdict
//	gcmc -preset tiny -lint -no-hs-fence  # static preflight names the broken rule
//	gcmc -preset tiny -validate-effects   # cross-check the static effect table
//	gcmc -preset tiny -checkpoint run.ckpt  # snapshot the search periodically
//	gcmc -preset tiny -resume run.ckpt    # continue an interrupted run
//	gcmc -remote http://127.0.0.1:8322 -preset tiny  # run on a gcmcd daemon
//
// # Run durability
//
// With -checkpoint the search state is snapshotted atomically every
// -checkpoint-every BFS layers. SIGINT/SIGTERM interrupt gracefully:
// the checker finishes its current layer, writes a final checkpoint,
// prints the partial result marked INCOMPLETE, and exits 130; a second
// signal kills immediately. -resume restarts from a checkpoint (the
// options must match; worker count may differ) and reaches the same
// verdict and counts as an uninterrupted run. -mem-budget caps the heap:
// as usage climbs the run degrades in steps (emergency checkpoint, drop
// audit fingerprints, clean incomplete stop) instead of being OOM-killed.
//
// # Remote runs
//
// With -remote the spec (preset + ablations + options) is submitted to
// a gcmcd daemon instead of run in-process: progress streams back over
// NDJSON, the daemon checkpoints and caches the run, and the verdict —
// including rendered counterexamples — prints exactly as a local run
// would, with the same exit codes. A repeated submission is served from
// the daemon's verdict cache without re-exploring.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/analysis"
	"repro/internal/buildinfo"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/heap"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/verdict"
)

func main() {
	var (
		preset   = flag.String("preset", "tiny", "configuration preset: "+strings.Join(core.PresetNames(), ", ")+", custom")
		mutators = flag.Int("mutators", 1, "custom: number of mutators")
		refs     = flag.Int("refs", 2, "custom: reference universe size")
		fields   = flag.Int("fields", 1, "custom: fields per object")
		budget   = flag.Int("budget", 2, "custom: per-cycle mutator operation budget (0 = unbounded)")
		maxBuf   = flag.Int("maxbuf", 2, "custom: store-buffer bound (0 = unbounded)")

		noDel      = flag.Bool("no-deletion-barrier", false, "ablate the deletion barrier (E11)")
		noIns      = flag.Bool("no-insertion-barrier", false, "ablate the insertion barrier (E11)")
		insGate    = flag.Bool("insertion-barrier-gated", false, "drop the insertion barrier after root marking (§4 observation, E12b)")
		scMem      = flag.Bool("sc", false, "sequential-consistency memory oracle instead of TSO (E13)")
		allocWhite = flag.Bool("alloc-white", false, "allocate with the unmarked sense (E11)")
		unlockedM  = flag.Bool("unlocked-mark", false, "ablate the TSO lock around the mark CAS (E19)")
		noHSFence  = flag.Bool("no-hs-fence", false, "ablate the mfences around handshake signalling (E19)")
		elide1     = flag.Bool("elide-hs1", false, "skip handshake round 1 (E12)")
		elide2     = flag.Bool("elide-hs2", false, "skip handshake round 2 (E12)")
		elide3     = flag.Bool("elide-hs3", false, "skip handshake round 3 (E12)")
		elide4     = flag.Bool("elide-hs4", false, "skip handshake round 4 (E12)")
		muteHS     = flag.Bool("mute-handshake", false, "liveness ablation: mutators never poll handshakes (breaks hs-ack)")
		noDeq      = flag.Bool("no-dequeue", false, "liveness ablation: buffered stores are never committed (breaks buf-drain)")

		maxStates = flag.Int("max-states", 0, "cap on distinct states (0 = none)")
		maxDepth  = flag.Int("max-depth", 0, "cap on BFS depth (0 = none)")
		headline  = flag.Bool("headline-only", false, "check only valid_refs_inv")
		quiet     = flag.Bool("q", false, "suppress progress output")
		jsonOut   = flag.Bool("json", false, "emit a machine-readable JSON verdict on stdout")

		ckptPath  = flag.String("checkpoint", "", "snapshot the search state to this file at layer boundaries (atomic writes)")
		ckptEvery = flag.Int("checkpoint-every", 0, "BFS layers between periodic checkpoints (0 = default: 16 locally, the daemon's cadence with -remote)")
		resume    = flag.String("resume", "", "resume the search from this checkpoint file (options must match; -workers may differ)")
		memBudget = flag.Int("mem-budget", 0, "soft heap budget in MiB: degrade (checkpoint, drop audit, stop cleanly) as usage approaches it (0 = none)")
		spillDir  = flag.String("spill-dir", "", "disk-spill directory: when the -mem-budget ladder would stop the run, spill the visited records and frontier layers here and complete exhaustively instead (remote runs: the daemon picks a per-job directory)")

		chaosFS    = flag.String("chaos-storage", "", "fault-injection spec for all disk I/O, e.g. 'eio@3', 'crash@run.ckpt+2', 'seed=7,rate=0.01,kinds=eio|enospc' (testing)")
		chaosTrace = flag.String("chaos-trace", "", "write the storage op/fault trace to this file after the run (with -chaos-storage)")

		workers = flag.Int("workers", 0, "checker worker goroutines per BFS layer (0 = GOMAXPROCS)")
		audit   = flag.Bool("audit", false, "retain full fingerprints and audit 64-bit hash collisions (costs memory)")
		reduce  = flag.Bool("reduce", false, "TSO-aware partial-order reduction (skip commuting buffer-local interleavings)")

		lint      = flag.Bool("lint", false, "static preflight: run the gclint placement rules on the configuration before exploring")
		validate  = flag.Bool("validate-effects", false, "cross-check the declared effect footprint and derived POR class on every transition/state")
		live      = flag.Bool("liveness", false, "also run the fair-cycle liveness checker on the unreduced state graph")
		liveProps = flag.String("live-prop", "", "comma-separated progress properties to check (default all: hs-ack-m<i>, gc-sweep, buf-drain-gc, buf-drain-m<i>)")

		remote  = flag.String("remote", "", "submit the run to a gcmcd daemon at this base URL instead of exploring in-process")
		version = flag.Bool("version", false, "print build identity and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String())
		return
	}

	abl := core.Ablations{
		NoDeletionBarrier:     *noDel,
		NoInsertionBarrier:    *noIns,
		InsertionBarrierGated: *insGate,
		SCMemory:              *scMem,
		AllocWhite:            *allocWhite,
		UnlockedMark:          *unlockedM,
		NoHSFence:             *noHSFence,
		ElideHS1:              *elide1,
		ElideHS2:              *elide2,
		ElideHS3:              *elide3,
		ElideHS4:              *elide4,
		MuteHandshake:         *muteHS,
		NoDequeue:             *noDeq,
	}

	// The run's options, declared once: -remote submits them as they are,
	// a local run maps them through the same JobOptions.VerifyOptions the
	// daemon's executor uses and adds the process-local fields below.
	jo := core.JobOptions{
		MaxStates:       *maxStates,
		MaxDepth:        *maxDepth,
		HeadlineOnly:    *headline,
		Audit:           *audit,
		Reduce:          *reduce,
		Liveness:        *live,
		ValidateEffects: *validate,
		Workers:         *workers,
		CheckpointEvery: *ckptEvery,
		MemBudgetMiB:    *memBudget,
		Spill:           *spillDir != "",
	}
	if *liveProps != "" {
		jo.LivenessProps = strings.Split(*liveProps, ",")
	}

	if *remote != "" {
		// Flags that name this process's files or preflight have no
		// meaning for a daemon's run: refuse them rather than ignore them.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "checkpoint", "resume", "lint", "chaos-storage", "chaos-trace":
				fmt.Fprintf(os.Stderr, "gcmc: -%s applies to local runs only and cannot be combined with -remote\n", f.Name)
				os.Exit(2)
			}
		})
		os.Exit(runRemote(*remote, *preset, abl, jo, *quiet, *jsonOut))
	}

	var cfg core.ModelConfig
	if *preset == "custom" {
		cfg = core.ModelConfig{
			NMutators: *mutators, NRefs: *refs, NFields: *fields,
			OpBudget: *budget, MaxBuf: *maxBuf,
			InitObjects:   map[heap.Ref][]heap.Ref{0: {1}, 1: {heap.NilRef}},
			InitRoots:     []heap.RefSet{heap.SetOf(0)},
			AllowNilStore: true,
		}
	} else {
		var err error
		cfg, err = core.PresetConfig(*preset)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gcmc:", err)
			os.Exit(2)
		}
	}
	abl.Apply(&cfg)

	if *lint {
		rep, err := analysis.LintModel(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gcmc: lint:", err)
			os.Exit(2)
		}
		if rep.Clean() {
			fmt.Fprintln(os.Stderr, "lint: clean (no placement rule fired)")
		} else {
			fmt.Fprintf(os.Stderr, "lint: %d finding(s) — the exploration below should find the corresponding violation:\n", len(rep.Findings))
			for _, f := range rep.Findings {
				fmt.Fprintf(os.Stderr, "  %s\n", f)
			}
		}
	}

	// Graceful interruption: the first SIGINT/SIGTERM cancels the run's
	// context — the checker finishes its current layer, writes a final
	// checkpoint when one is configured, and the partial result is
	// reported INCOMPLETE with exit status 130. After the first signal
	// the handler detaches, so a second signal kills immediately.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		s, ok := <-sigc
		if !ok {
			return
		}
		fmt.Fprintf(os.Stderr, "\ngcmc: caught %v — finishing the current layer (repeat to kill)\n", s)
		cancel()
		signal.Stop(sigc)
	}()

	var ffs *storage.FaultFS
	if *chaosFS != "" {
		var ferr error
		ffs, ferr = storage.FromSpec(nil, *chaosFS)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, "gcmc:", ferr)
			os.Exit(2)
		}
	}

	opt := jo.VerifyOptions()
	opt.Context = ctx
	opt.CheckpointPath = *ckptPath
	opt.Resume = *resume
	opt.SpillDir = *spillDir
	if ffs != nil {
		opt.FS = ffs
	}
	if !*quiet {
		opt.Progress = func(p core.Progress) {
			fmt.Fprintf(os.Stderr, "\r%10d states, %10d transitions, depth %4d, %8.1fs",
				p.States, p.Transitions, p.Depth, p.Elapsed.Seconds())
		}
	}

	res, err := core.Verify(cfg, opt)
	if ffs != nil && *chaosTrace != "" {
		if terr := os.WriteFile(*chaosTrace, []byte(storage.FormatTrace(ffs.Trace())), 0o644); terr != nil {
			fmt.Fprintln(os.Stderr, "gcmc: chaos trace:", terr)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gcmc:", err)
		os.Exit(2)
	}
	if !*quiet {
		fmt.Fprintln(os.Stderr)
	}
	if res.Stopped == explore.StopPanic {
		fmt.Fprintf(os.Stderr, "gcmc: internal error: %v\n", res.Err)
		if pe, ok := res.Err.(*explore.PanicError); ok {
			fmt.Fprintf(os.Stderr, "%s\n", pe.Stack)
		}
		os.Exit(2)
	}
	if res.Stopped == explore.StopSpill {
		// The disk rung failed: the run is incomplete through no fault of
		// the model. That is an environment error, not a verdict.
		fmt.Fprintf(os.Stderr, "gcmc: spill failed: %v\n", res.Err)
		os.Exit(2)
	}
	if res.Err != nil {
		// A checkpoint write failed but the run went on: warn, don't die.
		fmt.Fprintln(os.Stderr, "gcmc: warning:", res.Err)
	}
	if res.Checkpoints > 0 && *ckptPath != "" {
		fmt.Fprintf(os.Stderr, "gcmc: %d checkpoint(s) written to %s\n", res.Checkpoints, *ckptPath)
	}

	fp, _, _ := core.Fingerprint(cfg, opt) // 0 omits the field; Verify built this configuration, so it cannot fail here
	rec := verdict.New(*preset, abl, fp, res)
	rec.Build = buildinfo.String()
	if *jsonOut {
		b, merr := rec.Marshal()
		if merr != nil {
			fmt.Fprintln(os.Stderr, "gcmc:", merr)
			os.Exit(2)
		}
		os.Stdout.Write(b)
		os.Exit(rec.ExitCode())
	}

	// The verdict prints through the one renderer; what only a local run
	// knows (it holds the VerifyResult, not just the record) goes between
	// the counts and the outcome.
	os.Exit(printRecord(&rec, func() {
		if *reduce {
			fmt.Printf("reduction: ample at %d of %d states\n", res.AmpleStates, res.States)
		}
		if res.Effects != nil {
			ev, st := res.Effects.Stats()
			fmt.Printf("effects: %d transitions and %d states validated against the declared footprint\n", ev, st)
		}
		if res.States > 0 {
			fmt.Printf("visited-set: %d bytes (%.1f B/state)\n",
				res.VisitedBytes, float64(res.VisitedBytes)/float64(res.States))
		}
		if res.Spilled.Active {
			fmt.Printf("spill: %d layer(s) parked, %d flush(es), %d record(s), %d bytes via %s\n",
				res.Spilled.Layers, res.Spilled.Flushes, res.Spilled.States, res.Spilled.Bytes, *spillDir)
		}
		if res.Degraded {
			fmt.Fprintln(os.Stderr, "gcmc: note: memory watchdog dropped audit fingerprints mid-run; collision count is partial")
		}
		if mm := res.Memo; mm.StepHits+mm.StepMisses > 0 {
			// On stderr: the counts vary with worker timing and with where a
			// resumed run started, and stdout is what runs are compared by.
			fmt.Fprintf(os.Stderr, "gcmc: note: configuration table: %d configurations interned, %d table(s) retired; now %d configurations, %d entries, %d bytes; hits/misses: steps %d/%d, replies %d/%d, continuations %d/%d\n",
				mm.Interned, mm.Retired, mm.Configs, mm.Entries, mm.Bytes,
				mm.StepHits, mm.StepMisses, mm.ReplyHits, mm.ReplyMisses, mm.ContHits, mm.ContMisses)
		}
		if tb := res.Table; tb.Slots > 0 {
			// On stderr for the same reason: capacity and rebuilds depend on
			// where a resumed run started.
			fmt.Fprintf(os.Stderr, "gcmc: note: visited table: %d slots, load %.2f, %d stripe rebuild(s), %d overflow hit(s)\n",
				tb.Slots, tb.Load, tb.Grows, tb.Overflows)
		}
		if *audit {
			if res.HashCollisions > 0 {
				fmt.Fprintf(os.Stderr, "gcmc: WARNING: %d fingerprint hash collisions — hashed verdict unsound at this size\n",
					res.HashCollisions)
			} else {
				fmt.Println("audit: 0 fingerprint hash collisions")
			}
		}
		if lr := res.Liveness; lr != nil {
			fmt.Printf("liveness-graph: %d bytes\n", lr.GraphBytes)
		}
	}))
}

// runRemote submits the spec to a gcmcd daemon, streams progress back,
// and prints the verdict with the same output and exit codes as a
// local run.
func runRemote(base, preset string, abl core.Ablations, jo core.JobOptions, quiet, jsonOut bool) int {
	if preset == "custom" {
		fmt.Fprintln(os.Stderr, "gcmc: -remote supports named presets only (custom configurations are CLI-local)")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cli := server.NewClient(base)
	spec := core.JobSpec{Preset: preset, Ablations: abl, Options: jo}
	info, err := cli.Submit(ctx, spec, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gcmc:", err)
		return 2
	}
	if !quiet {
		fmt.Fprintf(os.Stderr, "gcmc: job %s (fingerprint %s) on %s: %s\n", info.ID, info.Fingerprint, base, info.State)
	}
	if !info.State.Terminal() {
		var fn func(server.JobInfo)
		if !quiet {
			fn = func(i server.JobInfo) {
				if p := i.Progress; p != nil {
					fmt.Fprintf(os.Stderr, "\r%10d states, %10d transitions, depth %4d, %8.1fs",
						p.States, p.Transitions, p.Depth, p.ElapsedSec)
				}
			}
		}
		info, err = cli.Stream(ctx, info.ID, fn)
		if !quiet {
			fmt.Fprintln(os.Stderr)
		}
		if ctx.Err() != nil {
			// Interrupted at the client: cancel the remote job too (it
			// checkpoints at the next layer barrier) and report 130.
			cctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if fin, cerr := cli.Cancel(cctx, info.ID); cerr == nil {
				info = fin
			}
			fmt.Fprintf(os.Stderr, "gcmc: interrupted — remote job %s cancelled (state %s)\n", info.ID, info.State)
			return 130
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "gcmc:", err)
			return 2
		}
	}
	switch info.State {
	case core.JobFailed:
		fmt.Fprintf(os.Stderr, "gcmc: remote job %s failed: %s\n", info.ID, info.Error)
		return 2
	case core.JobCancelled:
		fmt.Fprintf(os.Stderr, "gcmc: remote job %s was cancelled\n", info.ID)
		return 130
	}
	rec := info.Verdict
	if rec == nil {
		fmt.Fprintf(os.Stderr, "gcmc: remote job %s finished without a verdict\n", info.ID)
		return 2
	}
	if jsonOut {
		b, merr := rec.Marshal()
		if merr != nil {
			fmt.Fprintln(os.Stderr, "gcmc:", merr)
			return 2
		}
		os.Stdout.Write(b)
		return rec.ExitCode()
	}
	if rec.Cached {
		fmt.Fprintf(os.Stderr, "gcmc: verdict served from cache (produced by %s)\n", rec.Build)
	}
	return printRecord(rec, nil)
}

// printRecord is the one rendering of a verdict, local or remote: the
// counts line, then whatever detail lines the caller has beyond the
// record (nil for none), then the outcome. It returns the exit code.
func printRecord(rec *verdict.Record, details func()) int {
	fmt.Printf("states=%d transitions=%d depth=%d complete=%v deadlocks=%d elapsed=%.3fs\n",
		rec.States, rec.Transitions, rec.Depth, rec.Complete, rec.Deadlocks, rec.ElapsedSec)
	if details != nil {
		details()
	}
	if v := rec.Violation; v != nil {
		fmt.Println("VIOLATION:")
		fmt.Print(v.Rendered)
		return rec.ExitCode()
	}
	if l := rec.Liveness; l != nil {
		fmt.Printf("liveness: states=%d transitions=%d depth=%d complete=%v elapsed=%.3fs\n",
			l.States, l.Transitions, l.Depth, l.Complete, l.ElapsedSec)
		for _, p := range l.Properties {
			v := "holds"
			if !p.Holds {
				v = "FAIR CYCLE"
			}
			fmt.Printf("  %-14s %-10s %s\n", p.Name, v, p.Desc)
		}
		if !l.Holds {
			for _, p := range l.Properties {
				if p.Holds {
					continue
				}
				fmt.Printf("LIVENESS VIOLATION: %s (%s)\n", p.Name, p.Desc)
				fmt.Print(p.Rendered)
			}
			return rec.ExitCode()
		}
	}
	if rec.Verdict == "verified" {
		if rec.Liveness != nil {
			fmt.Println("VERIFIED: all invariants and progress properties hold on the full reachable state space")
		} else {
			fmt.Println("VERIFIED: all invariants hold on the full reachable state space")
		}
		return rec.ExitCode()
	}
	reason := rec.Stopped
	if reason == "" {
		if l := rec.Liveness; l != nil && l.Stopped != "" {
			reason = "liveness " + l.Stopped
		} else {
			reason = "bounded"
		}
	}
	// No violation, but the exploration did not cover the full space:
	// the verdict is explicitly inconclusive, never "holds".
	fmt.Printf("INCOMPLETE (%s): no violation found in the explored portion — not a verification\n", reason)
	return rec.ExitCode()
}
