// gcmc model-checks the collector model: it explores every reachable
// state of a bounded configuration of GC ∥ M1 ∥ … ∥ Mn ∥ Sys over
// x86-TSO and checks the paper's safety invariants at each one,
// printing a counterexample trace on violation. With the liveness
// option it additionally runs the fair-cycle detector over the same
// state graph and reports a verdict per progress property, with
// lasso-shaped counterexamples.
//
// Usage:
//
//	gcmc [-spec file.json | -preset name] [flags]
//
// The run is a core.JobSpec: a preset, optional bounds overriding the
// preset's (mutators, refs, fields, budget, maxbuf; 0 means unbounded
// for budget and maxbuf), ablation switches, and options. Everything
// the verdict depends on comes from the spec, read strictly: an unknown
// field or trailing data exits 2 naming it. -preset name is shorthand
// for {"preset": name}; giving both is exit 2. The flags only wire the
// run into this process: they fill its core.JobRun, and the run goes
// through core.RunJob exactly as a gcmcd job does.
//
// Examples:
//
//	gcmc -preset tiny                     # verify the headline theorem
//	gcmc -preset tiny -json               # machine-readable verdict
//	gcmc -spec job.json                   # run a spec file ("-" reads stdin)
//	echo '{"preset":"tiny","ablations":{"no_deletion_barrier":true}}' | gcmc -spec -
//	                                      # reproduce the lost-object bug
//	echo '{"preset":"tiny","options":{"liveness":true}}' | gcmc -spec -
//	                                      # also check progress properties
//	echo '{"preset":"alloc","bounds":{"refs":2,"budget":0,"maxbuf":1}}' | gcmc -spec -
//	                                      # tiny with allocation, unbounded budget
//	echo '{"preset":"tiny","ablations":{"no_hs_fence":true}}' | gcmc -spec - -lint
//	                                      # static preflight names the broken rule
//	gcmc -preset tiny -checkpoint run.ckpt  # snapshot the search periodically
//	gcmc -preset tiny -resume run.ckpt    # continue an interrupted run
//	gcmc -remote http://127.0.0.1:8322 -preset tiny  # run on a gcmcd daemon
//
// # Run durability
//
// With -checkpoint the search state is snapshotted every
// options.checkpoint_every BFS layers (default 16): the first snapshot
// is written whole and atomically (temp file, fsync, rename), and each
// later one appends only the visited records added since, fsynced, so
// the file is a log that loads as the latest cut. SIGINT/SIGTERM
// interrupt gracefully: the checker finishes its current layer, writes a
// final checkpoint, prints the partial result marked INCOMPLETE, and
// exits 130; a second signal kills immediately. -resume restarts from a
// checkpoint (the spec must match; options.workers may differ) and
// reaches the same verdict and counts as an uninterrupted run.
// options.mem_budget_mib caps the heap: as usage climbs the run degrades
// in steps (emergency checkpoint, drop the collision auditor, clean
// incomplete stop) instead of being OOM-killed; with options.spill and
// -checkpoint the last step moves the visited records to the checkpoint
// log and keeps each frontier layer encoded, and the run completes
// instead. options.spill without -checkpoint exits 2.
//
// # Remote runs
//
// With -remote the spec is submitted to a gcmcd daemon instead of run
// in-process: progress streams back over NDJSON, the daemon checkpoints
// and caches the run, and the verdict — including rendered
// counterexamples — prints exactly as a local run would, with the same
// exit codes. A repeated submission is served from the daemon's verdict
// cache without re-exploring.
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
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/verdict"
)

func main() {
	var (
		specPath = flag.String("spec", "", "read the run's core.JobSpec (preset, bounds, ablations, options) from this JSON file; - reads stdin")
		preset   = flag.String("preset", "", "shorthand for -spec {\"preset\": name}, default tiny: "+strings.Join(core.PresetNames(), ", "))
		quiet    = flag.Bool("q", false, "suppress progress output")
		jsonOut  = flag.Bool("json", false, "emit a machine-readable JSON verdict on stdout")
		lint     = flag.Bool("lint", false, "static preflight: run the placement rules of internal/analysis on the configuration before exploring")

		ckptPath = flag.String("checkpoint", "", "snapshot the search state to this file at layer boundaries (an atomic first write, then fsynced appends of what changed)")
		resume   = flag.String("resume", "", "resume the search from this checkpoint file (the spec must match; options.workers may differ)")

		chaosFS    = flag.String("chaos-storage", "", "fault-injection spec for all disk I/O, e.g. 'eio@3', 'crash@run.ckpt+2', 'seed=7,rate=0.01,kinds=eio|enospc' (testing)")
		chaosTrace = flag.String("chaos-trace", "", "write the storage op/fault trace to this file after the run (with -chaos-storage)")

		remote  = flag.String("remote", "", "submit the run to a gcmcd daemon at this base URL instead of exploring in-process")
		version = flag.Bool("version", false, "print build identity and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String())
		return
	}
	spec, err := core.ReadJobSpec(*specPath, *preset)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gcmc:", err)
		os.Exit(2)
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
		os.Exit(runRemote(*remote, spec, *quiet, *jsonOut))
	}
	if spec.Options.Spill && *ckptPath == "" {
		// The spill's records go to the checkpoint log: without one the
		// rung would never arm.
		fmt.Fprintln(os.Stderr, "gcmc: options.spill needs -checkpoint on a local run")
		os.Exit(2)
	}

	cfg, opt, err := spec.Build()
	if err != nil {
		fmt.Fprintln(os.Stderr, "gcmc:", err)
		os.Exit(2)
	}

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

	run := core.JobRun{
		Context:        ctx,
		CheckpointPath: *ckptPath,
		Resume:         *resume,
	}
	if ffs != nil {
		run.FS = ffs
	}
	if !*quiet {
		run.Progress = func(p core.Progress) {
			fmt.Fprintf(os.Stderr, "\r%10d states, %10d transitions, depth %4d, %8.1fs",
				p.States, p.Transitions, p.Depth, p.Elapsed.Seconds())
		}
	}

	res, _, err := core.RunJob(spec, run)
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
	if res.ResumeDropped > 0 {
		fmt.Fprintf(os.Stderr, "gcmc: note: resume dropped %d torn checkpoint segment(s)\n", res.ResumeDropped)
	}
	if res.Checkpoints > 0 && *ckptPath != "" {
		fmt.Fprintf(os.Stderr, "gcmc: %d checkpoint(s), %d bytes written to %s\n", res.Checkpoints, res.CheckpointBytes, *ckptPath)
	}

	fp, _, _ := core.Fingerprint(cfg, opt) // 0 omits the field; RunJob built this configuration, so it cannot fail here
	rec := verdict.New(spec.Preset, spec.Ablations, fp, res)
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
		if spec.Options.Reduce {
			fmt.Printf("reduction: ample at %d of %d states\n", res.AmpleStates, res.States)
		}
		if res.Effects != nil {
			ev, st := res.Effects.Stats()
			fmt.Printf("effects: %d transitions and %d states validated against the declared footprint; %d ample steps run in both orders\n",
				ev, st, res.Effects.AmpleChecked())
		}
		if res.States > 0 {
			fmt.Printf("visited-set: %d bytes (%.1f B/state)\n",
				res.VisitedBytes, float64(res.VisitedBytes)/float64(res.States))
		}
		if res.Spilled.Active {
			fmt.Printf("spill: %d layer(s) expanded from the compact frontier; visited records in %d checkpoint bytes\n",
				res.Spilled.Layers, res.CheckpointBytes)
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
		if lr := res.Liveness; lr != nil {
			fmt.Printf("liveness-graph: %d bytes, from a %d-byte log\n", lr.GraphBytes, lr.LogBytes)
		}
	}))
}

// runRemote submits the spec to a gcmcd daemon, streams progress back,
// and prints the verdict with the same output and exit codes as a
// local run.
func runRemote(base string, spec core.JobSpec, quiet, jsonOut bool) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cli := server.NewClient(base)
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
// record (nil for none), then the collision audit, then the outcome. It
// returns the exit code.
func printRecord(rec *verdict.Record, details func()) int {
	fmt.Printf("states=%d transitions=%d depth=%d complete=%v deadlocks=%d elapsed=%.3fs\n",
		rec.States, rec.Transitions, rec.Depth, rec.Complete, rec.Deadlocks, rec.ElapsedSec)
	if details != nil {
		details()
	}
	if a := rec.Audit; a != nil {
		if a.Partial {
			fmt.Fprintln(os.Stderr, "gcmc: note: the collision count covers only part of the run (the memory watchdog dropped the auditor, or the run resumed from a checkpoint)")
		}
		if a.Collisions > 0 {
			fmt.Fprintf(os.Stderr, "gcmc: WARNING: %d fingerprint hash collisions — hashed verdict unsound at this size\n", a.Collisions)
		} else {
			fmt.Println("audit: 0 fingerprint hash collisions")
		}
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
