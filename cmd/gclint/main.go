// gclint statically analyzes the collector model and the litmus
// catalogue without model-checking anything. It has three modes:
//
//   - -preset/-ablation flags: extract the effect footprint of one model
//     configuration, build the per-process control-flow graphs, and
//     evaluate the placement rules (deletion-barrier, insertion-barrier,
//     mark-cas, handshake-fence, phase-ladder). Exit status 1 iff a rule
//     fired — so a barrier-, lock-, or fence-ablated configuration is
//     rejected in milliseconds, before any exploration.
//
//   - -litmus: run the Shasha–Snir TSO-robustness analysis on every
//     litmus program and report which store→load pairs lie on critical
//     cycles. With -dyn, each verdict is cross-checked against the
//     dynamic ground truth (TSO vs SC outcome-set equality under
//     tso.Explore).
//
//   - -all: the CI gate. Lints every shipped preset (expecting no
//     findings) and the full litmus catalogue with the dynamic
//     cross-check (expecting static soundness: every program whose TSO
//     outcomes exceed SC is flagged). Exit status 1 on any surprise.
//
//   - -gosrc: lint the checker's and runtime's own Go source instead
//     of the model. The fingerprint call graph of internal/gcmodel must
//     contain no map iteration (order is randomized, so one would make
//     verdicts nondeterministic); every goroutine spawned in
//     internal/explore, internal/liveness, internal/server and
//     internal/gcrt must install a deferred recover guard; and the
//     gortlint conformance passes run over the concrete collector
//     (field-access discipline, write-barrier coverage, publication
//     discipline), the verification service and the disk layer
//     (discipline again — the analyzer is generic over the `gcrt:guard`
//     annotations). Every pass shares one type-checked load of the
//     tree. Exit status 1 on any finding; -json emits the
//     gclint.gosrc/v1 report.
//
//   - -gosrc-fixtures: run every gortlint pass against its seeded-
//     defect fixture tree instead of the real one. Each fixture must
//     produce at least its expected number of findings — the smoke that
//     proves the zero-findings gate still has teeth. Exit status 1 when
//     every fixture fires (findings present = healthy, matching the
//     ablation smokes); 0 signals a detection regression.
//
// SIGINT/SIGTERM interrupt -all and -litmus gracefully between items:
// the partial report prints, marked INCOMPLETE, and the process exits
// 130 — an interrupted gate is never mistaken for a clean one.
//
// Usage:
//
//	gclint [flags]
//
// Examples:
//
//	gclint -preset tiny                    # lint the default model: clean
//	gclint -preset tiny -no-hs-fence       # rule handshake-fence fires, exit 1
//	gclint -preset tiny -relaxed           # also show relaxed pairs + fence coverage
//	gclint -litmus -dyn                    # static verdicts vs dynamic ground truth
//	gclint -all                            # full static gate (CI entry point)
//	gclint -gosrc                          # lint the checker's own source
//	gclint -preset tiny -json              # machine-readable report
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"repro/internal/analysis"
	"repro/internal/analysis/golint"
	"repro/internal/analysis/gortlint"
	"repro/internal/buildinfo"
	"repro/internal/core"
	"repro/internal/litmus"
	"repro/internal/tso"
	"repro/internal/verdict"
)

func main() {
	var (
		preset  = flag.String("preset", "tiny", "model preset to lint: "+strings.Join(core.PresetNames(), ", "))
		relaxed = flag.Bool("relaxed", false, "also print the informational relaxed store→load pairs and per-fence coverage")

		noDel     = flag.Bool("no-deletion-barrier", false, "ablate the deletion barrier")
		noIns     = flag.Bool("no-insertion-barrier", false, "ablate the insertion barrier")
		insGate   = flag.Bool("insertion-barrier-gated", false, "drop the insertion barrier after root marking")
		unlockedM = flag.Bool("unlocked-mark", false, "ablate the TSO lock around the mark CAS")
		noHSFence = flag.Bool("no-hs-fence", false, "ablate the mfences around handshake signalling")
		scMem     = flag.Bool("sc", false, "sequential-consistency memory oracle instead of TSO")
		elide1    = flag.Bool("elide-hs1", false, "skip handshake round 1")
		elide2    = flag.Bool("elide-hs2", false, "skip handshake round 2")
		elide3    = flag.Bool("elide-hs3", false, "skip handshake round 3")
		elide4    = flag.Bool("elide-hs4", false, "skip handshake round 4")

		litmusMode = flag.Bool("litmus", false, "analyze the litmus catalogue instead of a model configuration")
		dyn        = flag.Bool("dyn", false, "litmus: cross-check each static verdict against TSO/SC exploration")
		all        = flag.Bool("all", false, "CI gate: lint every preset and the litmus catalogue with -dyn")
		gosrc      = flag.Bool("gosrc", false, "lint the checker's and runtime's own Go source: fingerprint map order, recover guards, and the gortlint conformance passes")
		gosrcFix   = flag.Bool("gosrc-fixtures", false, "run the gortlint passes against their seeded-defect fixtures (exit 1 = every defect still caught)")
		jsonOut    = flag.Bool("json", false, "emit machine-readable JSON on stdout")
		version    = flag.Bool("version", false, "print build identity and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String())
		return
	}

	ctx, cancel := context.WithCancel(context.Background())
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		fmt.Fprintf(os.Stderr, "gclint: caught %v — stopping after the current item (repeat to kill)\n", sig)
		cancel()
		signal.Stop(sigc)
	}()

	switch {
	case *gosrcFix:
		os.Exit(runGoSrcFixtures())
	case *gosrc:
		os.Exit(runGoSrc(*jsonOut))
	case *all:
		os.Exit(runAll(ctx, *jsonOut))
	case *litmusMode:
		os.Exit(runLitmus(ctx, *dyn, *jsonOut))
	}

	cfg, err := core.PresetConfig(*preset)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gclint:", err)
		os.Exit(2)
	}
	cfg.NoDeletionBarrier = *noDel
	cfg.NoInsertionBarrier = *noIns
	cfg.InsertionBarrierOnlyBeforeRootsDone = *insGate
	cfg.UnlockedMark = *unlockedM
	cfg.NoHSFence = *noHSFence
	cfg.SCMemory = *scMem
	cfg.ElideHS1 = *elide1
	cfg.ElideHS2 = *elide2
	cfg.ElideHS3 = *elide3
	cfg.ElideHS4 = *elide4

	rep, err := analysis.LintModel(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gclint:", err)
		os.Exit(2)
	}

	if *jsonOut {
		emit(verdict.FromModelReport(*preset, rep, *relaxed))
	} else {
		printModel(*preset, rep, *relaxed)
	}
	if !rep.Clean() {
		os.Exit(1)
	}
}

func printModel(preset string, rep *analysis.ModelReport, relaxed bool) {
	if rep.Clean() {
		fmt.Printf("%s: clean (no placement rule fired)\n", preset)
	} else {
		fmt.Printf("%s: %d finding(s)\n", preset, len(rep.Findings))
		for _, f := range rep.Findings {
			fmt.Printf("  %s\n", f)
		}
	}
	if relaxed {
		fmt.Printf("relaxed store→load pairs (informational — the model tolerates these): %d\n", len(rep.Relaxed))
		for _, p := range rep.Relaxed {
			fmt.Printf("  p%d: %s → %s\n", p.PID, p.Store, p.Load)
		}
		for _, c := range rep.FenceCoverage {
			fmt.Printf("fence p%d %s suppresses %d pair(s)\n", c.PID, c.Label, c.Covers)
		}
	}
}

// interrupted reports whether ctx has been cancelled (by the signal
// handler).
func interrupted(ctx context.Context) bool {
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}

// runLitmus analyzes the catalogue; with dyn it cross-checks against
// exploration. Returns the exit status: 1 iff a static verdict is
// unsound (a dynamically non-robust program not flagged), 130 if
// interrupted before the catalogue was exhausted.
func runLitmus(ctx context.Context, dyn, jsonOut bool) int {
	status := 0
	var out []verdict.LitmusLint
	for _, tc := range litmus.All() {
		if interrupted(ctx) {
			fmt.Fprintln(os.Stderr, "gclint: INCOMPLETE (interrupted): litmus catalogue not exhausted")
			return 130
		}
		rep := analysis.AnalyzeTSOProgram(tc.Prog)
		var dynVerdict *bool
		note := ""
		if dyn {
			d := robustDynamic(tc.Prog)
			dynVerdict = &d
			switch {
			case !d && rep.Robust:
				note = "  UNSOUND: TSO outcomes exceed SC but not flagged"
				status = 1
			case d && !rep.Robust:
				note = "  (conservative: outcome sets coincide)"
			}
		}
		out = append(out, verdict.FromTSOReport(tc.Name, rep, dynVerdict))
		if !jsonOut {
			v := "robust"
			if !rep.Robust {
				v = fmt.Sprintf("NOT TSO-robust: %v", rep.Critical)
			}
			fmt.Printf("%-22s %s%s\n", tc.Name, v, note)
		}
	}
	if jsonOut {
		emit(out)
	}
	return status
}

// runAll is the CI gate: every shipped preset must lint clean and every
// litmus verdict must be dynamically sound. An interruption stops
// between items and exits 130 — a partial gate never reads as clean.
func runAll(ctx context.Context, jsonOut bool) int {
	status := 0
	for _, name := range core.PresetNames() {
		if interrupted(ctx) {
			fmt.Fprintln(os.Stderr, "gclint: INCOMPLETE (interrupted): preset sweep not exhausted")
			return 130
		}
		cfg, err := core.PresetConfig(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gclint: %s: %v\n", name, err)
			return 2
		}
		rep, err := analysis.LintModel(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gclint: %s: %v\n", name, err)
			return 2
		}
		if !rep.Clean() {
			status = 1
		}
		if !jsonOut {
			printModel(name, rep, false)
		}
	}
	if s := runLitmus(ctx, true, jsonOut); s != 0 {
		status = s
	}
	return status
}

// runGoSrc lints the checker's and runtime's own Go source: the
// fingerprint call graph must be map-iteration free, every
// verification-worker spawn must carry a recover guard, and the
// gortlint conformance passes must find the concrete collector, the
// verification service and the disk layer clean. Directories are
// resolved against the enclosing module root, so the gate works from
// any working directory inside the repository. With jsonOut the
// gclint.gosrc/v1 report is emitted on stdout.
func runGoSrc(jsonOut bool) int {
	root, err := golint.ModuleRoot(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "gclint:", err)
		return 2
	}
	status := 0
	rep := verdict.GoSrcLint{Schema: verdict.GoSrcSchema, Clean: true}
	report := func(pass, dir string, diags []golint.Diagnostic, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "gclint: %s: %v\n", pass, err)
			status = 2
			return
		}
		p := verdict.GoSrcPass{Pass: pass, Dir: dir, Clean: len(diags) == 0}
		for _, d := range diags {
			p.Findings = append(p.Findings, verdict.GoSrcFinding{
				Pos:     relPos(root, d.Pos),
				Func:    d.Func,
				Message: d.Message,
			})
		}
		rep.Passes = append(rep.Passes, p)
		if !p.Clean {
			rep.Clean = false
			if status == 0 {
				status = 1
			}
		}
		if jsonOut {
			return
		}
		if p.Clean {
			fmt.Printf("%s: %s: clean\n", pass, dir)
			return
		}
		for _, f := range p.Findings {
			fmt.Printf("%s: %s: %s: %s\n", pass, f.Pos, f.Func, f.Message)
		}
	}

	// One load, type-checking each package of the union once, serves
	// every pass.
	mod, err := golint.LoadPackages(underRoot(root, gortlint.Roots())...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gclint:", err)
		return 2
	}
	for _, p := range gortlint.Passes() {
		diags, err := p.Run(mod)
		report(p.Name, p.Dir, diags, err)
	}

	if jsonOut {
		emit(rep)
	}
	return status
}

// runGoSrcFixtures runs every gortlint pass against its seeded-defect
// fixture tree. A healthy analyzer fires on every fixture, so — like
// the ablation smokes — the expected exit status is 1; a fixture that
// produces fewer findings than its floor is a detection regression and
// drops the status back to 0 (with a diagnostic on stderr).
func runGoSrcFixtures() int {
	root, err := golint.ModuleRoot(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "gclint:", err)
		return 2
	}
	healthy := true
	for _, spec := range gortlint.Fixtures() {
		mod, err := golint.LoadPackages(underRoot(root, spec.Dirs)...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gclint: fixture %s: %v\n", spec.Name, err)
			return 2
		}
		diags, err := spec.Run(mod)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gclint: fixture %s: %v\n", spec.Name, err)
			return 2
		}
		fmt.Printf("fixture %s: %d finding(s), expected >= %d\n", spec.Name, len(diags), spec.Min)
		if len(diags) < spec.Min {
			fmt.Fprintf(os.Stderr, "gclint: fixture %s: REGRESSION: seeded defects no longer caught\n", spec.Name)
			healthy = false
		}
	}
	if healthy {
		return 1
	}
	return 0
}

// underRoot resolves module-relative directories against the module root.
func underRoot(root string, rels []string) []string {
	dirs := make([]string, len(rels))
	for i, rel := range rels {
		dirs[i] = filepath.Join(root, filepath.FromSlash(rel))
	}
	return dirs
}

// relPos renders a diagnostic position relative to the module root, so
// reports are stable across checkouts.
func relPos(root string, pos token.Position) string {
	if rel, err := filepath.Rel(root, pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
		return fmt.Sprintf("%s:%d:%d", filepath.ToSlash(rel), pos.Line, pos.Column)
	}
	return pos.String()
}

func robustDynamic(p tso.Program) bool {
	a, b := tso.Explore(p, tso.TSO), tso.Explore(p, tso.SC)
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}

func emit(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fmt.Fprintln(os.Stderr, "gclint:", err)
		os.Exit(2)
	}
}
