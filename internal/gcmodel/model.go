package gcmodel

import (
	"fmt"

	"repro/internal/cimp"
	"repro/internal/heap"
)

// Config describes a bounded model instance: the numbers of mutators,
// references and fields, the initial heap, and the ablation switches used
// by the necessity experiments (E11/E12).
type Config struct {
	// NMutators is the number of mutator processes (PIDs 1..NMutators).
	NMutators int
	// NRefs is the size of the reference universe (max 64).
	NRefs int
	// NFields is the number of reference fields per object.
	NFields int
	// MaxBuf bounds each TSO store buffer (0 = unbounded). A bound keeps
	// the reachable state space finite when mutators can issue stores in
	// a loop without an intervening fence; writes block when the buffer
	// is full. The paper's model leaves buffers unbounded, which is
	// sound for its deductive proof but not for explicit-state search.
	MaxBuf int
	// AllowNilStore lets Store write NULL (pure deletion); the paper's
	// mutators store only roots, but deletions through overwriting are
	// the deletion barrier's raison d'être, and NULL stores exercise it
	// directly.
	AllowNilStore bool

	// InitObjects maps initially allocated references to their field
	// values (padded/truncated to NFields). Initial flags are false,
	// which, with the initial f_M = false, makes the initial heap black
	// as required by the hp_Idle invariant.
	InitObjects map[heap.Ref][]heap.Ref
	// InitRoots holds each mutator's initial root set. Entries beyond
	// len(InitRoots) start with no roots.
	InitRoots []heap.RefSet

	// Ablations (experiments E11/E12).
	NoDeletionBarrier  bool // omit the deletion (snapshot) barrier
	NoInsertionBarrier bool // omit the insertion (incremental-update) barrier
	// InsertionBarrierOnlyBeforeRootsDone implements the paper's §4
	// observation: the insertion barrier can be removed across the mark
	// loop in exchange for an extra branch in the store barrier. The
	// mutator skips the insertion mark once it has completed its own
	// root-marking handshake (thread-local knowledge, so the branch
	// needs no synchronization). Experiment E12b checks this variant.
	InsertionBarrierOnlyBeforeRootsDone bool
	// SCMemory commits every store immediately instead of buffering it:
	// the sequential-consistency oracle at model level, used to compare
	// state spaces and to demonstrate which invariant subtleties are
	// TSO-specific (E13).
	SCMemory   bool
	AllocWhite bool // allocate with the unmarked sense during all phases
	// Liveness ablations (package liveness): each removes one
	// progress-critical transition without touching safety, so the
	// fair-cycle detector has a real, fair violation to find.
	// MuteHandshake drops the mutators' handshake alternative entirely:
	// handshakes are still signaled but never polled or acknowledged.
	// NoDequeue drops the system's internal dequeue transition: stores
	// enter the buffers but are never committed to memory.
	MuteHandshake bool
	NoDequeue     bool
	// UnlockedMark drops the TSO lock around the mark operation's CAS
	// (Figure 5): the flag is re-read, compared and stored without the
	// locked-instruction prefix, so two processes can both win and the
	// buffered mark store can be overtaken. The static mark-cas rule of
	// package analysis flags this variant without exploration.
	UnlockedMark bool
	// NoHSFence drops the four handshake memory fences (the collector's
	// mfence_init/mfence_done around signaling, Figure 4, and the
	// mutators' mfence_accept/mfence_finish around handshake work): a
	// handshake can then complete while control/barrier stores are
	// still buffered. The static handshake-fence rule flags it.
	NoHSFence bool
	ElideHS1  bool // skip handshake round 1 (idle noop)
	ElideHS2  bool // skip handshake round 2 (after f_M flip)
	ElideHS3  bool // skip handshake round 3 (after phase ← Init)
	ElideHS4  bool // skip handshake round 4 (after phase ← Mark)

	// State-space controls.
	//
	// OpBudget bounds the number of heap operations (Load, Store, Alloc,
	// Discard) each mutator may perform per collector cycle; the budget
	// refills when the mutator completes the start-of-cycle handshake.
	// 0 means unbounded. A bound makes exhaustive exploration
	// tractable — a bounded-context reduction in the style of
	// context-bounded analysis: all interleavings of the budgeted
	// operations are still explored.
	OpBudget       int
	NondetPickSrc  bool // non-deterministic src pick in the mark loop
	DisableLoad    bool
	DisableStore   bool
	DisableAlloc   bool
	DisableDiscard bool
	DisableMFence  bool // drop the mutators' spontaneous MFENCE alternative
}

// Validate checks the configuration bounds.
func (c *Config) Validate() error {
	if c.NMutators < 1 {
		return fmt.Errorf("gcmodel: need at least one mutator, got %d", c.NMutators)
	}
	if c.NRefs < 1 || c.NRefs > heap.MaxUniverse {
		return fmt.Errorf("gcmodel: NRefs must be in 1..%d, got %d", heap.MaxUniverse, c.NRefs)
	}
	if c.NFields < 0 {
		return fmt.Errorf("gcmodel: NFields must be non-negative, got %d", c.NFields)
	}
	for r, fs := range c.InitObjects {
		if int(r) < 0 || int(r) >= c.NRefs {
			return fmt.Errorf("gcmodel: initial object %d outside universe", r)
		}
		for _, f := range fs {
			if f != heap.NilRef && (int(f) < 0 || int(f) >= c.NRefs) {
				return fmt.Errorf("gcmodel: initial field value %d outside universe", f)
			}
		}
	}
	for m, rs := range c.InitRoots {
		bad := false
		rs.Each(func(r heap.Ref) {
			if int(r) >= c.NRefs {
				bad = true
			}
			if _, ok := c.InitObjects[r]; !ok {
				bad = true
			}
		})
		if bad {
			return fmt.Errorf("gcmodel: mutator %d initial roots %v not all allocated", m, rs)
		}
	}
	return nil
}

// SysState is the checker-facing state type: the full parallel
// composition's configuration.
type SysState = cimp.System[*Local]

// SysEvent is a system transition event.
type SysEvent = cimp.Event

// Model is a built model instance: the process programs, the command
// index for fingerprinting, and the initial system state.
type Model struct {
	Cfg   Config
	Index *cimp.Index[*Local]
	init  cimp.System[*Local]
}

// NProcs is the total process count: collector + mutators + system.
func (m *Model) NProcs() int { return m.Cfg.NMutators + 2 }

// SysPID is the system process's PID.
func (m *Model) SysPID() cimp.PID { return cimp.PID(m.Cfg.NMutators + 1) }

// GCPID is the collector's PID.
const GCPID cimp.PID = 0

// MutPID returns the PID of mutator ordinal m (0-based).
func MutPID(m int) cimp.PID { return cimp.PID(m + 1) }

// Build assembles a model from the configuration.
func Build(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nproc := cfg.NMutators + 2

	h := heap.New(cfg.NRefs)
	for r, fs := range cfg.InitObjects {
		h.AllocAt(r, cfg.NFields, false)
		for i := 0; i < cfg.NFields && i < len(fs); i++ {
			h.Store(r, heap.Field(i), fs[i])
		}
	}

	sysLocal := &SysLocal{
		Heap:    h,
		FA:      false,
		FM:      false,
		Phase:   PhIdle,
		Bufs:    make([][]WAct, nproc),
		Lock:    -1,
		HSType:  HSNoop,
		Tag:     TagNone,
		Pending: make([]bool, cfg.NMutators),
	}

	gcLocal := &GCLocal{
		MRef: heap.NilRef, Src: heap.NilRef, TmpRef: heap.NilRef,
		SwRef: heap.NilRef, GHG: heap.NilRef,
	}

	// Programs first: the index compiles them (identities and unfolding
	// tables), and nothing can be stepped — not even the control
	// unfolding that normalizes the initial stacks — before that.
	progs := make([]cimp.Com[*Local], 0, nproc)
	progs = append(progs, cfg.GCProgram())
	for i := 0; i < cfg.NMutators; i++ {
		progs = append(progs, cfg.MutProgram(i))
	}
	progs = append(progs, cfg.SysProgram())
	index := cimp.NewIndex((*Local).AppendFingerprint, progs...)

	procs := make([]cimp.Config[*Local], 0, nproc)
	spawn := func(data *Local) {
		prog := progs[len(procs)]
		procs = append(procs, cimp.Config[*Local]{
			Stack: cimp.Norm([]cimp.Com[*Local]{prog}, data), Data: data})
	}
	spawn(&Local{Self: GCPID, GC: gcLocal})
	for i := 0; i < cfg.NMutators; i++ {
		var roots heap.RefSet
		if i < len(cfg.InitRoots) {
			roots = cfg.InitRoots[i]
		}
		spawn(&Local{Self: MutPID(i), Mut: &MutLocal{
			Roots: roots,
			MRef:  heap.NilRef, SSrc: heap.NilRef, SDst: heap.NilRef,
			TmpRef: heap.NilRef, GHG: heap.NilRef,
			HP:      HpIdle,
			OpsLeft: cfg.OpBudget,
		}})
	}
	spawn(&Local{Self: cimp.PID(nproc - 1), Sys: sysLocal})

	return &Model{
		Cfg:   cfg,
		Index: index,
		init:  cimp.System[*Local]{Procs: procs},
	}, nil
}

// Initial returns the initial system state.
func (m *Model) Initial() cimp.System[*Local] { return m.init }

// Successors enumerates the system transitions from st.
func (m *Model) Successors(st cimp.System[*Local], yield func(cimp.System[*Local], cimp.Event)) {
	st.Successors(yield)
}

// Fingerprint canonically encodes a system state as a string. The
// checker's hot path uses AppendFingerprint/Hash64 (fingerprint.go)
// instead to avoid one string allocation per enumerated successor.
func (m *Model) Fingerprint(st cimp.System[*Local]) string {
	return string(m.AppendFingerprint(nil, st))
}

// Global is a read-only view of a system state used by the invariant
// predicates (package invariant) and by trace rendering.
type Global struct {
	Model *Model
	State cimp.System[*Local]
}

// Sys returns the system process's data state.
func (g Global) Sys() *SysLocal { return g.State.Procs[len(g.State.Procs)-1].Data.Sys }

// GC returns the collector's data state.
func (g Global) GC() *GCLocal { return g.State.Procs[0].Data.GC }

// NMut is the number of mutators.
func (g Global) NMut() int { return g.Model.Cfg.NMutators }

// Mut returns mutator m's (0-based) data state.
func (g Global) Mut(m int) *MutLocal { return g.State.Procs[m+1].Data.Mut }

// GCConfig returns the collector's full process configuration.
func (g Global) GCConfig() cimp.Config[*Local] { return g.State.Procs[0] }

// MutConfig returns mutator m's full process configuration.
func (g Global) MutConfig(m int) cimp.Config[*Local] { return g.State.Procs[m+1] }

// Buf returns the TSO store buffer of PID p.
func (g Global) Buf(p cimp.PID) []WAct { return g.Sys().Bufs[p] }

// MemFM is the shared-memory value of f_M.
func (g Global) MemFM() bool { return g.Sys().FM }

// GCViewFM is f_M as the collector sees it: its newest buffered write if
// any, else memory. The collector is the sole writer of f_M, so this is
// the authoritative ("freshest") value.
func (g Global) GCViewFM() bool {
	return sysRead(g.Sys(), GCPID, Loc{Kind: LFM}).Bool()
}

// GCViewFA is f_A from the collector's perspective (sole writer).
func (g Global) GCViewFA() bool {
	return sysRead(g.Sys(), GCPID, Loc{Kind: LFA}).Bool()
}

// GCViewPhase is phase from the collector's perspective (sole writer).
func (g Global) GCViewPhase() Phase {
	return sysRead(g.Sys(), GCPID, Loc{Kind: LPhase}).Phase()
}
