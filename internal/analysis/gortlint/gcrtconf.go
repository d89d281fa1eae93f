package gortlint

// This file declares the access-discipline tables and pass configs for
// the concrete runtime (internal/gcrt) — the machine-checked companion
// of the concurrency comments in that package. The tables mirror the
// ownership story the kernel's documentation tells: control variables
// and mark headers are atomic (the TSO argument lives in their method
// calls), free lists hang off per-shard locks, mutator-private state
// (roots, work-lists, reservations) is owner-confined with the
// parked-mutator protocol as the sole exemption, and everything set up
// before sharing is immutable-after-init.
//
// Changing a gcrt struct means updating the matching table entry AND
// the `gcrt:guard` annotation on the field — the analyzer fails loudly
// on drift in either direction, which is the point.

// GCRTDirs lists the load roots for the gcrt passes, relative to the
// module root: the runtime, its adversarial workload driver, and the
// non-test binary that exercises it.
func GCRTDirs() []string {
	return []string{
		"internal/gcrt",
		"internal/gcrt/workload",
		"cmd/gcrt-demo",
	}
}

// gcrtPkg is the import path of the runtime package.
const gcrtPkg = "repro/internal/gcrt"

// GCRTDiscipline returns the field-access discipline config for the
// runtime.
func GCRTDiscipline() DisciplineConfig {
	return DisciplineConfig{
		Package: gcrtPkg,
		Table: Table{
			Structs: map[string]map[string]FieldRule{
				"Arena": {
					"nslots":  {Class: Immutable},
					"nfields": {Class: Immutable},
					"headers": {Class: Immutable}, // elements are atomics
					"fields":  {Class: Immutable}, // elements are atomics
					"shards":  {Class: Immutable}, // shards lock themselves
					"smask":   {Class: Immutable},
					"Faults":  {Class: Atomic},
				},
				"freeShard": {
					"mu":   {Class: Atomic},
					"free": {Class: Guarded, Guard: "mu"},
				},
				"Runtime": {
					"opt":          {Class: Immutable},
					"arena":        {Class: Immutable},
					"fM":           {Class: Atomic},
					"fA":           {Class: Atomic},
					"phase":        {Class: Atomic},
					"hsType":       {Class: Atomic},
					"hsRound":      {Class: Owner, Domain: "collector"},
					"muts":         {Class: Immutable},
					"stw":          {Class: Atomic},
					"wqMu":         {Class: Atomic},
					"wq":           {Class: Guarded, Guard: "wqMu"},
					"oracle":       {Class: Immutable, Init: []string{"New", "Runtime.EnableOracle"}},
					"sweepScratch": {Class: Owner, Domain: "collector"},
					"stats":        {Class: Immutable}, // counters are atomics
				},
				"Mutator": {
					"rt":         {Class: Immutable},
					"id":         {Class: Immutable},
					"roots":      {Class: Owner, Domain: "mutator"},
					"wl":         {Class: Owner, Domain: "mutator"},
					"tlab":       {Class: Owner, Domain: "mutator"},
					"bbuf":       {Class: Owner, Domain: "mutator"},
					"bcap":       {Class: Immutable},
					"hsWanted":   {Class: Atomic},
					"hsAcked":    {Class: Atomic},
					"lastAck":    {Class: Owner, Domain: "mutator"},
					"parked":     {Class: Atomic},
					"parkMu":     {Class: Atomic},
					"served":     {Class: Atomic},
					"stwAcked":   {Class: Atomic},
					"pauseMax":   {Class: Atomic},
					"pauseTotal": {Class: Atomic},
					"pauseCount": {Class: Atomic},
					"ops":        {Class: Owner, Domain: "mutator"},
					"oracleTick": {Class: Owner, Domain: "mutator"},
				},
				"wsDeque": {
					"top":    {Class: Atomic},
					"bottom": {Class: Atomic},
					"buf":    {Class: Immutable}, // elements are atomics
					"mask":   {Class: Immutable},
				},
				"traceState": {
					"deques":    {Class: Immutable},
					"ovMu":      {Class: Atomic},
					"overflow":  {Class: Guarded, Guard: "ovMu"},
					"pending":   {Class: Atomic},
					"processed": {Class: Atomic},
					"failed":    {Class: Atomic},
					"panicVal":  {Class: Guarded, Guard: "ovMu"},
				},
				"Oracle": {
					"rt":       {Class: Immutable},
					"opt":      {Class: Immutable},
					"total":    {Class: Atomic},
					"checks":   {Class: Atomic},
					"mu":       {Class: Atomic},
					"findings": {Class: Guarded, Guard: "mu"},
					"byCheck":  {Class: Guarded, Guard: "mu"},
				},
				"Stats": {
					"cycles":          {Class: Atomic},
					"freed":           {Class: Atomic},
					"marked":          {Class: Atomic},
					"scanned":         {Class: Atomic},
					"markFast":        {Class: Atomic},
					"markCAS":         {Class: Atomic},
					"handshakes":      {Class: Atomic},
					"handshakeNanos":  {Class: Atomic},
					"cycleNanos":      {Class: Atomic},
					"rootsRounds":     {Class: Atomic},
					"tlabRefills":     {Class: Atomic},
					"steals":          {Class: Atomic},
					"barrierBuffered": {Class: Atomic},
					"barrierFlushes":  {Class: Atomic},
					"hsHist":          {Class: Immutable}, // buckets are atomics
				},
				"latHist": {
					"buckets": {Class: Immutable}, // elements are atomics
				},
			},
			Init: []string{"New", "NewArenaSharded", "newWSDeque"},
			Exempt: map[string][]string{
				// The parked-mutator protocol: the collector services a
				// parked mutator's handshake under parkMu, operating on its
				// private roots and work-list on its behalf (§2.2).
				"Runtime.collectorSideHandshake": {"Mutator.roots", "Mutator.wl"},
				// The STW baseline scans roots with the world stopped.
				"Runtime.CollectSTW": {"Mutator.roots"},
				// The oracle samples a mutator's roots at its own safe point
				// (on the mutator's goroutine) and ticks its sampling
				// counter inside Store.
				"Oracle.validateMutator": {"Mutator.roots"},
				"Oracle.checkStore":      {"Mutator.oracleTick"},
			},
		},
	}
}

// GCRTBarriers returns the barrier-coverage config: Mutator.Store is
// the audited mutator store (deletion + insertion barrier before the
// raw write, Figure 6); the allocator/collector paths that write fields
// raw do so on unpublished or unreachable slots.
func GCRTBarriers() BarrierConfig {
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

// GCRTPublish returns the publication-discipline config: slots popped
// from a reservation are dead until Arena.install writes their header.
func GCRTPublish() PublishConfig {
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

// GCRTHooks returns the benchmark-hook restriction: the raw mark-flag
// mutators may only be referenced from test files (the Go benchmarks in
// bench_test.go; the loader never parses _test.go), so no non-test
// package is on the allow list.
func GCRTHooks() HooksConfig {
	return HooksConfig{
		Package: gcrtPkg,
		RestrictedFns: []string{
			"Arena.SetFlagForBenchmark",
			"Arena.WhitenForBenchmark",
		},
	}
}
