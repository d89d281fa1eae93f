package gcmodel

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cimp"
	"repro/internal/heap"
)

func testConfig() Config {
	return Config{
		NMutators: 1,
		NRefs:     2,
		NFields:   1,
		MaxBuf:    2,
		OpBudget:  1,
		InitObjects: map[heap.Ref][]heap.Ref{
			0: {1},
			1: {heap.NilRef},
		},
		InitRoots:     []heap.RefSet{heap.SetOf(0)},
		AllowNilStore: true,
		DisableAlloc:  true,
	}
}

func build(t *testing.T, cfg Config) *Model {
	t.Helper()
	m, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// walk performs a seeded random walk and feeds every event to visit.
func walk(t *testing.T, m *Model, seed int64, steps int, visit func(cimp.Event, Global)) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	st := m.Initial()
	for i := 0; i < steps; i++ {
		type cand struct {
			next cimp.System[*Local]
			ev   cimp.Event
		}
		var cands []cand
		m.Successors(st, func(n cimp.System[*Local], ev cimp.Event) {
			cands = append(cands, cand{n, ev})
		})
		if len(cands) == 0 {
			t.Fatalf("deadlock at step %d", i)
		}
		c := cands[rng.Intn(len(cands))]
		st = c.next
		visit(c.ev, Global{Model: m, State: st})
	}
}

// TestFig3TagSequence (E3): the handshake rounds initiated by the
// collector follow the Figure 3 cycle structure: idle, idle-init,
// init-mark, mark, roots, then one or more work rounds, then idle again.
func TestFig3TagSequence(t *testing.T) {
	m := build(t, testConfig())
	var tags []RoundTag
	walk(t, m, 42, 30_000, func(ev cimp.Event, g Global) {
		if strings.HasSuffix(ev.Label, "_start") && strings.Contains(ev.Label, "_hs_") {
			tags = append(tags, g.Sys().Tag)
		}
	})
	if len(tags) < 8 {
		t.Fatalf("walk too short: %d handshakes", len(tags))
	}
	// Check cycle structure.
	i := 0
	cycles := 0
	for i < len(tags) {
		want := []RoundTag{TagIdle, TagIdleInit, TagInitMark, TagMark, TagRoots}
		for _, w := range want {
			if i >= len(tags) {
				return // truncated final cycle is fine
			}
			if tags[i] != w {
				t.Fatalf("cycle %d: handshake %d is %v, want %v (tags=%v)", cycles, i, tags[i], w, tags)
			}
			i++
		}
		for i < len(tags) && tags[i] == TagWork {
			i++
		}
		cycles++
	}
	if cycles < 1 {
		t.Fatal("no complete cycle observed")
	}
}

// TestFig3PhaseWrites (E2/E3): the collector's phase writes follow
// Idle → Init → Mark → Sweep → Idle, and f_M flips exactly once per
// cycle, before Init.
func TestFig3PhaseWrites(t *testing.T) {
	m := build(t, testConfig())
	var writes []string
	walk(t, m, 7, 30_000, func(ev cimp.Event, g Global) {
		switch ev.Label {
		case "gc_write_phase_init":
			writes = append(writes, "Init")
		case "gc_write_phase_mark":
			writes = append(writes, "Mark")
		case "gc_write_phase_sweep":
			writes = append(writes, "Sweep")
		case "gc_write_phase_idle":
			writes = append(writes, "Idle")
		case "gc_write_fM":
			writes = append(writes, "flip")
		}
	})
	if len(writes) < 5 {
		t.Fatalf("walk too short: %v", writes)
	}
	want := []string{"flip", "Init", "Mark", "Sweep", "Idle"}
	for i, w := range writes {
		if w != want[i%5] {
			t.Fatalf("write %d = %s, want %s (writes=%v)", i, w, want[i%5], writes)
		}
	}
}

// TestFig4HandshakeAnatomy (E4): within one round, the collector's
// events are ordered start, fence, signals, wait-all, fence; and the
// mutator's are poll, accept-fence, work, finish-fence, done.
func TestFig4HandshakeAnatomy(t *testing.T) {
	m := build(t, testConfig())
	var events []string
	walk(t, m, 99, 10_000, func(ev cimp.Event, g Global) {
		events = append(events, ev.Label)
	})

	// Examine the first roots round.
	start := -1
	for i, e := range events {
		if e == "gc_hs_roots_start" {
			start = i
			break
		}
	}
	if start == -1 {
		t.Fatal("no roots handshake in walk")
	}
	// Collect this round's collector-side and mutator-side milestones.
	var gcSide, mutSide []string
	for _, e := range events[start:] {
		if e == "gc_mark_outer" || strings.HasPrefix(e, "gc_pick_src") || e == "gc_write_phase_sweep" {
			break
		}
		if strings.HasPrefix(e, "gc_hs_roots_") {
			gcSide = append(gcSide, strings.TrimPrefix(e, "gc_hs_roots_"))
		}
		if e == "mut0_hs_poll" || strings.HasPrefix(e, "mut0_hs_mfence") || e == "mut0_hs_done" {
			mutSide = append(mutSide, strings.TrimPrefix(e, "mut0_hs_"))
		}
	}
	wantGC := []string{"start", "mfence_init", "signal", "wait_all", "mfence_done"}
	if !reflect.DeepEqual(gcSide, wantGC) {
		t.Fatalf("collector side = %v, want %v", gcSide, wantGC)
	}
	// The mutator may poll (and see no pending bit) any number of times
	// before the signal and after completing; the accept sequence itself
	// must appear contiguously: poll, accept fence, (root marking),
	// finish fence, done.
	wantMut := []string{"poll", "mfence_accept", "mfence_finish", "done"}
	found := false
	for i := 0; i+len(wantMut) <= len(mutSide); i++ {
		if reflect.DeepEqual(mutSide[i:i+len(wantMut)], wantMut) {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("accept sequence %v not found in mutator side %v", wantMut, mutSide)
	}
}

// TestHandshakePhaseGhost: the mutator's ghost handshake phase follows
// Figure 3's bottom row as rounds complete.
func TestHandshakePhaseGhost(t *testing.T) {
	m := build(t, testConfig())
	var seen []HandshakePhase
	last := HandshakePhase(-1)
	walk(t, m, 5, 30_000, func(ev cimp.Event, g Global) {
		hp := g.Mut(0).HP
		if hp != last {
			seen = append(seen, hp)
			last = hp
		}
	})
	if len(seen) < 4 {
		t.Fatalf("phases observed: %v", seen)
	}
	want := []HandshakePhase{HpIdle, HpIdleInit, HpInitMark, HpIdleMarkSweep}
	for i, p := range seen {
		if p != want[i%4] {
			t.Fatalf("phase %d = %v, want %v (seen=%v)", i, p, want[i%4], seen)
		}
	}
}

// TestMarkLoopTermination (E9): whenever the collector writes
// phase ← Sweep, no grey references exist anywhere in the system.
func TestMarkLoopTermination(t *testing.T) {
	m := build(t, testConfig())
	checked := 0
	walk(t, m, 11, 40_000, func(ev cimp.Event, g Global) {
		if ev.Label != "gc_write_phase_sweep" {
			return
		}
		checked++
		grey := g.GC().W.Union(g.Sys().W)
		for i := 0; i < g.NMut(); i++ {
			grey = grey.Union(g.Mut(i).WM).Add(g.Mut(i).GHG)
		}
		if !grey.Empty() {
			t.Fatalf("greys %v at sweep entry", grey)
		}
	})
	if checked == 0 {
		t.Fatal("no sweep transitions observed")
	}
}

// TestValRoundTrip covers the shared-memory value encoding.
func TestValRoundTrip(t *testing.T) {
	if !BoolVal(true).Bool() || BoolVal(false).Bool() {
		t.Fatal("bool round trip")
	}
	for _, p := range []Phase{PhIdle, PhInit, PhMark, PhSweep} {
		if PhaseVal(p).Phase() != p {
			t.Fatalf("phase %v round trip", p)
		}
	}
	for _, r := range []heap.Ref{heap.NilRef, 0, 5, 63} {
		if RefVal(r).Ref() != r {
			t.Fatalf("ref %v round trip", r)
		}
	}
}

func TestLocalCloneIsDeep(t *testing.T) {
	cfg := testConfig()
	m := build(t, cfg)
	sys := m.Initial().Procs[m.Cfg.NMutators+1].Data
	c := sys.Clone()
	c.Sys.Heap.Free(0)
	c.Sys.Pending[0] = true
	c.Sys.Bufs[0] = append(c.Sys.Bufs[0], WAct{Loc: Loc{Kind: LFM}, Val: 1})
	if !sys.Sys.Heap.Valid(0) || sys.Sys.Pending[0] || len(sys.Sys.Bufs[0]) != 0 {
		t.Fatal("SysLocal clone shares state")
	}

	mut := m.Initial().Procs[1].Data
	cm := mut.Clone()
	cm.Mut.Roots = cm.Mut.Roots.Add(1)
	if mut.Mut.Roots.Has(1) {
		t.Fatal("MutLocal clone shares state")
	}
}

// TestFingerprintSensitivity: each edit of one field of the initial state,
// a process register or a heap object's flag, field or allocation, moves
// the fingerprint.
func TestFingerprintSensitivity(t *testing.T) {
	m := build(t, testConfig())
	base := m.Fingerprint(m.Initial())
	sys := int(m.SysPID())
	for _, tc := range []struct {
		name string
		pid  int
		edit func(*Local)
	}{
		{"root", 1, func(l *Local) { l.Mut.Roots = l.Mut.Roots.Add(1) }},
		{"f_M", sys, func(l *Local) { l.Sys.FM = true }},
		{"heap flag", sys, func(l *Local) { l.Sys.Heap.SetFlag(0, true) }},
		{"heap field", sys, func(l *Local) { l.Sys.Heap.Store(0, 0, heap.NilRef) }},
		{"heap free", sys, func(l *Local) { l.Sys.Heap.Free(1) }},
	} {
		st := edited(m.Initial(), tc.pid, tc.edit)
		if m.Fingerprint(st) == base {
			t.Errorf("%s change invisible to fingerprint", tc.name)
		}
	}
}

// edited is st with process pid's local state replaced by an edited clone.
func edited(st cimp.System[*Local], pid int, edit func(*Local)) cimp.System[*Local] {
	st = st.CloneShallow()
	l := st.Procs[pid].Data.Clone()
	edit(l)
	st.Procs[pid] = cimp.Config[*Local]{Stack: st.Procs[pid].Stack, Data: l}
	return st
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []Config{
		{NMutators: 0, NRefs: 1},
		{NMutators: 1, NRefs: 0},
		{NMutators: 1, NRefs: 65},
		{NMutators: 1, NRefs: 2, InitObjects: map[heap.Ref][]heap.Ref{5: nil}},
		{NMutators: 1, NRefs: 2, InitRoots: []heap.RefSet{heap.SetOf(1)}}, // root not allocated
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("config %d validated", i)
		}
	}
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestValidateRejectsBoundsItCannotHonour: each row is testConfig with
// one bound that parts of the model would read differently — a negative
// buffer bound is unbounded to the memory system but full to the
// reduction — or that would silently drop part of the configuration.
func TestValidateRejectsBoundsItCannotHonour(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		edit       func(*Config)
	}{
		{"negative MaxBuf", "MaxBuf", func(c *Config) { c.MaxBuf = -1 }},
		{"negative OpBudget", "OpBudget", func(c *Config) { c.OpBudget = -1 }},
		{"root sets beyond the mutators", "initial root sets", func(c *Config) {
			c.InitRoots = append(c.InitRoots, heap.SetOf(1))
		}},
	} {
		cfg := testConfig()
		tc.edit(&cfg)
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want an error naming %s", tc.name, err, tc.want)
		}
	}
}

// TestDropRejectsUnknownLabel: Build fails on a label that names no
// droppable command: a misspelling, a command that is not a drop point,
// or a mutator the configuration does not have.
func TestDropRejectsUnknownLabel(t *testing.T) {
	for _, l := range []string{"gc_hs_flip_mfence", "gc_hs_roots_start", "mut1_hs_poll"} {
		cfg := testConfig()
		cfg.Drop = []string{l}
		if _, err := Build(cfg); err == nil || !strings.Contains(err.Error(), l) {
			t.Errorf("Drop %q: Build error %v, want one naming it", l, err)
		}
	}
}

// TestEveryDropLabelDropsACommand: each label of every ablation, dropped
// alone, removes commands from the programs of a one- and a two-mutator
// configuration, so no label in the table is dead.
func TestEveryDropLabelDropsACommand(t *testing.T) {
	for _, nmut := range []int{1, 2} {
		cfg := testConfig()
		cfg.NMutators = nmut
		full := build(t, cfg).Index.Len()
		for name := range ablationLabels {
			for _, l := range AblationDrop(name, nmut) {
				cfg.Drop = []string{l}
				if n := build(t, cfg).Index.Len(); n >= full {
					t.Errorf("%d mutator(s), %s: dropping %s leaves %d commands of %d", nmut, name, l, n, full)
				}
			}
		}
	}
}

func TestHpAfterMapping(t *testing.T) {
	cases := map[RoundTag]HandshakePhase{
		TagIdle:     HpIdle,
		TagIdleInit: HpIdleInit,
		TagInitMark: HpInitMark,
		TagMark:     HpIdleMarkSweep,
		TagRoots:    HpIdleMarkSweep,
		TagWork:     HpIdleMarkSweep,
	}
	for tag, want := range cases {
		if got := hpAfter(tag, HpIdle); got != want {
			t.Fatalf("hpAfter(%v) = %v, want %v", tag, got, want)
		}
	}
	if got := hpAfter(TagNone, HpInitMark); got != HpInitMark {
		t.Fatalf("hpAfter(TagNone) should preserve, got %v", got)
	}
}

// TestSysReadForwardsFromBuffer: the system's TSO load semantics (paper
// Figure 9) — the newest buffered write wins, else memory.
func TestSysReadForwardsFromBuffer(t *testing.T) {
	m := build(t, testConfig())
	sys := m.Initial().Procs[m.Cfg.NMutators+1].Data.Sys

	loc := Loc{Kind: LFM}
	if got := sysRead(sys, 1, loc); got.Bool() {
		t.Fatal("initial f_M should read false")
	}
	sys.Bufs[1] = append(sys.Bufs[1], WAct{Loc: loc, Val: BoolVal(true)})
	if got := sysRead(sys, 1, loc); !got.Bool() {
		t.Fatal("own buffered write not forwarded")
	}
	if got := sysRead(sys, 0, loc); got.Bool() {
		t.Fatal("another process sees the uncommitted write")
	}
	sys.Bufs[1] = append(sys.Bufs[1], WAct{Loc: loc, Val: BoolVal(false)})
	if got := sysRead(sys, 1, loc); got.Bool() {
		t.Fatal("newest buffered write must win")
	}
}

// TestDoWriteAppliesAllLocations covers do-write-action.
func TestDoWriteAppliesAllLocations(t *testing.T) {
	m := build(t, testConfig())
	sys := m.Initial().Procs[m.Cfg.NMutators+1].Data.Sys

	doWrite(sys, WAct{Loc: Loc{Kind: LFA}, Val: BoolVal(true)})
	doWrite(sys, WAct{Loc: Loc{Kind: LFM}, Val: BoolVal(true)})
	doWrite(sys, WAct{Loc: Loc{Kind: LPhase}, Val: PhaseVal(PhMark)})
	doWrite(sys, WAct{Loc: Loc{Kind: LMark, R: 0}, Val: BoolVal(true)})
	doWrite(sys, WAct{Loc: Loc{Kind: LField, R: 0, F: 0}, Val: RefVal(heap.NilRef)})
	if !sys.FA || !sys.FM || sys.Phase != PhMark {
		t.Fatal("control writes not applied")
	}
	if !sys.Heap.Obj(0).Flag || sys.Heap.Load(0, 0) != heap.NilRef {
		t.Fatal("heap writes not applied")
	}
	// Writes to freed objects are dropped, not applied.
	sys.Heap.Free(1)
	doWrite(sys, WAct{Loc: Loc{Kind: LMark, R: 1}, Val: BoolVal(true)})
	doWrite(sys, WAct{Loc: Loc{Kind: LField, R: 1, F: 0}, Val: RefVal(0)})
	if sys.Heap.Valid(1) {
		t.Fatal("write resurrected a freed object")
	}
}

// BenchmarkBuild measures model construction: the three programs, the
// command index with its unfolding tables, and the initial state. It is
// what cmd/bench reports as setup_s on the checker workloads.
func BenchmarkBuild(b *testing.B) {
	cfg := testConfig() // the tiny preset's programs
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Build(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
