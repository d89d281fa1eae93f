package gortlint

// This file declares what the package's Go-source gate tests load and
// run, and the part of each package's discipline that cannot live at a
// field: the structs in scope and the function-level Init/Exempt/Holds
// tables. The field classes are the `gcrt:guard` annotations in the
// packages themselves.

import "repro/internal/analysis/golint"

// roots lists the module-relative directories the gate tests load,
// in one golint.LoadPackages call whose module every pass shares: each
// package a pass targets, plus the runtime's non-test clients (its
// workload driver and cmd/gcrt-demo), so their accesses to the
// runtime's exported fields are checked too.
func roots() []string {
	return []string{
		"internal/gcmodel",
		"internal/explore",
		"internal/liveness",
		"internal/server",
		"internal/storage",
		"internal/gcrt",
		"internal/gcrt/workload",
		"cmd/gcrt-demo",
	}
}

// pass is one zero-findings gate over the real tree.
type pass struct {
	// Name is the check; Dir is the module-relative directory of the
	// package it targets. Together they label the pass in reports.
	Name, Dir string
	// Run executes the pass against the module loaded from roots.
	Run func(mod *golint.Module) ([]golint.Diagnostic, error)
}

// passes lists every Go-source gate: golint's fingerprint map-order
// and recover-guard passes, then the gortlint conformance passes over
// the runtime, the service and the disk layer.
func passes() []pass {
	ps := []pass{{
		Name: "fingerprint-map-order", Dir: "internal/gcmodel",
		Run: func(mod *golint.Module) ([]golint.Diagnostic, error) {
			return golint.Check(mod, "repro/internal/gcmodel", []string{"AppendFingerprint"})
		},
	}}
	for _, dir := range []string{"internal/explore", "internal/liveness", "internal/server", "internal/gcrt"} {
		ps = append(ps, pass{
			Name: "goroutine-recover-guard", Dir: dir,
			Run: func(mod *golint.Module) ([]golint.Diagnostic, error) {
				return golint.CheckGoRecover(mod, "repro/"+dir)
			},
		})
	}
	discipline := func(name, dir string, cfg DisciplineConfig) pass {
		return pass{Name: name, Dir: dir, Run: func(mod *golint.Module) ([]golint.Diagnostic, error) {
			return CheckDiscipline(mod, cfg)
		}}
	}
	return append(ps,
		discipline("gcrt-discipline", "internal/gcrt", gcrtDiscipline()),
		pass{Name: "gcrt-barriers", Dir: "internal/gcrt", Run: func(mod *golint.Module) ([]golint.Diagnostic, error) {
			return CheckBarriers(mod, gcrtBarriers())
		}},
		pass{Name: "gcrt-publication", Dir: "internal/gcrt", Run: func(mod *golint.Module) ([]golint.Diagnostic, error) {
			return CheckPublish(mod, gcrtPublish())
		}},
		discipline("server-discipline", "internal/server", serverDiscipline()),
		discipline("storage-discipline", "internal/storage", storageDiscipline()),
	)
}

// gcrtPkg is the import path of the runtime package.
const gcrtPkg = "repro/internal/gcrt"

// gcrtDiscipline is the runtime's discipline. Its annotations tell the
// kernel's ownership story: control variables and mark headers are
// atomic (the TSO argument lives in their method calls), free lists
// hang off per-shard locks, mutator-private state (roots, work-lists,
// reservations) is owner-confined — the collector services a parked
// mutator's handshake through the Mutator's own serviceHandshake, under
// parkMu — and everything set up before sharing is immutable.
func gcrtDiscipline() DisciplineConfig {
	return DisciplineConfig{
		Package: gcrtPkg,
		Structs: []string{"Arena", "freeShard", "Runtime", "Mutator", "wsDeque", "traceState", "Oracle", "Stats", "mutatorStats", "latHist"},
		Init:    []string{"New", "newWSDeque"},
		Exempt: map[string][]string{
			// The oracle samples a mutator's roots at its own safe point
			// (on the mutator's goroutine) and ticks its sampling
			// counter inside Store.
			"Oracle.validateMutator": {"Mutator.roots"},
			"Oracle.checkStore":      {"Mutator.oracleTick"},
		},
	}
}

// gcrtBarriers is the barrier-coverage config: Mutator.Store is the
// audited mutator store (deletion + insertion barrier before the raw
// write, Figure 6); the allocator/collector paths that write fields raw
// do so on unpublished or unreachable slots.
func gcrtBarriers() BarrierConfig {
	return BarrierConfig{
		Package:   gcrtPkg,
		StoreFns:  []string{"Arena.StoreField"},
		BarrierFn: "Mutator.barrierHit",
		Audited: map[string]int{
			"Mutator.Store": 2, // deletion barrier + insertion barrier
		},
		AblationFlags: []string{"NoDeletionBarrier", "NoInsertionBarrier"},
		RawFields:     []string{"Arena.fields"},
		AllowedRaw: []string{
			"Arena.StoreField", // the raw store primitive itself
			"Arena.install",    // initializes an unpublished slot
		},
	}
}

// gcrtPublish is the publication-discipline config: slots popped from a
// reservation are dead until Arena.install writes their header.
func gcrtPublish() PublishConfig {
	return PublishConfig{
		Package: gcrtPkg,
		ReservationFields: []string{
			"Mutator.tlab",
			"freeShard.free",
		},
		InstallFns: []string{"Arena.install"},
		PublishFns: []string{"Arena.StoreField", "Runtime.transfer"},
		Exempt: []string{
			// The reservation machinery itself shuttles uninstalled slots
			// between free lists and reservations by design.
			"Arena.reserveBatch",
			"Arena.returnBatch",
		},
	}
}

// serverDiscipline is the verification service's discipline: one big
// Engine lock, caller-holds conventions for the *Locked helpers and the
// heap.Interface methods, and job identity fields that freeze at
// submission.
func serverDiscipline() DisciplineConfig {
	return DisciplineConfig{
		Package: "repro/internal/server",
		Structs: []string{"Engine", "job"},
		Init:    []string{"New", "Engine.recover"},
		Holds: map[string][]string{
			// The *Locked suffix is the caller-holds convention.
			"Engine.persistLocked":          {"Engine.mu"},
			"Engine.infoLocked":             {"Engine.mu"},
			"Engine.pushLocked":             {"Engine.mu"},
			"Engine.notifyLocked":           {"Engine.mu"},
			"Engine.corpusCellsLocked":      {"Engine.mu"},
			"Engine.requeueLocked":          {"Engine.mu"},
			"Engine.noteStorageErrorLocked": {"Engine.mu"},
			"reusableLocked":                {"Engine.mu"},
			// container/heap invokes the jobQueue methods only from
			// heap.Push/Pop/Fix calls made under the engine lock.
			"jobQueue.Len":  {"Engine.mu"},
			"jobQueue.Less": {"Engine.mu"},
			"jobQueue.Swap": {"Engine.mu"},
			"jobQueue.Push": {"Engine.mu"},
			"jobQueue.Pop":  {"Engine.mu"},
		},
	}
}

// storageDiscipline is the fault-injecting filesystem's discipline: one
// FaultFS lock over the op counter, trace, schedules and crash latch;
// per-file wrappers frozen at construction.
func storageDiscipline() DisciplineConfig {
	return DisciplineConfig{
		Package: "repro/internal/storage",
		Structs: []string{"FaultFS", "pathFault", "faultFile"},
		Init:    []string{"NewFaultFS", "FaultFS.Open", "FaultFS.Create"},
	}
}
