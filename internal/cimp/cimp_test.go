package cimp

import (
	"encoding/binary"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// counter is a trivial local state for semantics tests.
type counter struct {
	n int
	m int
}

func (c *counter) clone() *counter { d := *c; return &d }

// encCounter is the data encoder the tests' indexes key their
// configuration tables with.
func encCounter(c *counter, dst []byte) []byte {
	return binary.AppendVarint(binary.AppendVarint(dst, int64(c.n)), int64(c.m))
}

func incr(label string, by int) *LocalOp[*counter] {
	return &LocalOp[*counter]{L: label, F: func(c *counter) []*counter {
		d := c.clone()
		d.n += by
		return []*counter{d}
	}}
}

// boot compiles prog (the step engine only runs indexed programs) and
// returns the one-frame stack a process starts from.
func boot(prog Com[*counter]) []Com[*counter] {
	if n := prog.meta(); n == nil || n.ix == nil {
		NewIndex(encCounter, prog)
	}
	return []Com[*counter]{prog}
}

func run(t *testing.T, prog Com[*counter], init *counter) *counter {
	t.Helper()
	cfg := Config[*counter]{Stack: Norm(boot(prog), init), Data: init}
	for i := 0; i < 10_000; i++ {
		if Terminated(cfg) {
			return cfg.Data
		}
		var next *Config[*counter]
		TauSuccessors(cfg, func(n Config[*counter], _ string) {
			if next == nil {
				next = &n
			}
		})
		if next == nil {
			t.Fatalf("stuck at %v", AtLabels(cfg))
		}
		cfg = *next
	}
	t.Fatal("program did not terminate")
	return nil
}

func TestSeqRunsInOrder(t *testing.T) {
	got := run(t, Seqs[*counter](incr("a", 1), incr("b", 10), incr("c", 100)), &counter{})
	if got.n != 111 {
		t.Fatalf("n = %d, want 111", got.n)
	}
}

func TestCondTakesCorrectBranch(t *testing.T) {
	prog := If2("if", func(c *counter) bool { return c.n > 0 },
		incr("t", 100), incr("e", 1000))
	if got := run(t, prog, &counter{n: 1}); got.n != 101 {
		t.Fatalf("then branch: n = %d, want 101", got.n)
	}
	if got := run(t, prog, &counter{n: 0}); got.n != 1000 {
		t.Fatalf("else branch: n = %d, want 1000", got.n)
	}
}

func TestWhileIterates(t *testing.T) {
	prog := &While[*counter]{L: "w",
		C:    func(c *counter) bool { return c.n < 5 },
		Body: incr("i", 1)}
	if got := run(t, prog, &counter{}); got.n != 5 {
		t.Fatalf("n = %d, want 5", got.n)
	}
}

func TestWhileConditionSeesUpdatedState(t *testing.T) {
	// The condition must be re-evaluated against the state produced by
	// the body, not the state at loop entry.
	prog := &While[*counter]{L: "w",
		C: func(c *counter) bool { return c.n != 3 },
		Body: &LocalOp[*counter]{L: "set", F: func(c *counter) []*counter {
			d := c.clone()
			d.n = 3
			return []*counter{d}
		}}}
	if got := run(t, prog, &counter{n: 1}); got.n != 3 {
		t.Fatalf("n = %d, want 3", got.n)
	}
}

func TestSkipAndEmptySeqs(t *testing.T) {
	got := run(t, Seqs[*counter](&Skip[*counter]{}, incr("a", 7), Seqs[*counter]()), &counter{})
	if got.n != 7 {
		t.Fatalf("n = %d, want 7", got.n)
	}
}

func TestLoopKeepsBodyBeneath(t *testing.T) {
	// A Loop never terminates; after k body steps the head must again be
	// the body's action.
	prog := &Loop[*counter]{Body: incr("tick", 1)}
	cfg := Config[*counter]{Stack: Norm(boot(prog), &counter{}), Data: &counter{}}
	for i := 0; i < 10; i++ {
		if Terminated(cfg) {
			t.Fatal("loop terminated")
		}
		if !At(cfg, "tick") {
			t.Fatalf("iteration %d: at %v, want tick", i, AtLabels(cfg))
		}
		var next Config[*counter]
		TauSuccessors(cfg, func(n Config[*counter], _ string) { next = n })
		cfg = next
	}
	if cfg.Data.n != 10 {
		t.Fatalf("n = %d, want 10", cfg.Data.n)
	}
}

func TestChooseExposesAllAlternatives(t *testing.T) {
	prog := &Choose[*counter]{Alts: []Com[*counter]{
		incr("a", 1), incr("b", 2),
		Seqs[*counter](incr("c", 3), incr("d", 4)),
	}}
	cfg := Config[*counter]{Stack: boot(prog), Data: &counter{}}
	labels := AtLabels(cfg)
	sort.Strings(labels)
	if !reflect.DeepEqual(labels, []string{"a", "b", "c"}) {
		t.Fatalf("labels = %v", labels)
	}
	var ns []int
	TauSuccessors(cfg, func(n Config[*counter], _ string) { ns = append(ns, n.Data.n) })
	sort.Ints(ns)
	if !reflect.DeepEqual(ns, []int{1, 2, 3}) {
		t.Fatalf("successor values = %v", ns)
	}
}

func TestBlockedLocalOpHasNoSuccessors(t *testing.T) {
	blocked := &LocalOp[*counter]{L: "blocked", F: func(*counter) []*counter { return nil }}
	cfg := Config[*counter]{Stack: boot(blocked), Data: &counter{}}
	count := 0
	TauSuccessors(cfg, func(Config[*counter], string) { count++ })
	if count != 0 {
		t.Fatalf("blocked op produced %d successors", count)
	}
}

func TestNondeterministicLocalOpBranches(t *testing.T) {
	branch := &LocalOp[*counter]{L: "nd", F: func(c *counter) []*counter {
		a, b := c.clone(), c.clone()
		a.n = 1
		b.n = 2
		return []*counter{a, b}
	}}
	cfg := Config[*counter]{Stack: boot(branch), Data: &counter{}}
	var ns []int
	TauSuccessors(cfg, func(n Config[*counter], _ string) { ns = append(ns, n.Data.n) })
	sort.Ints(ns)
	if !reflect.DeepEqual(ns, []int{1, 2}) {
		t.Fatalf("successors = %v", ns)
	}
}

func TestRendezvousExchangesMessages(t *testing.T) {
	// Requester sends its counter value; responder doubles it and sends
	// it back; both record the exchange.
	reqP := &Request[*counter]{L: "ask",
		Act: func(c *counter) Msg { return c.n },
		Ret: func(c *counter, beta Msg) []*counter {
			d := c.clone()
			d.m = beta.(int)
			return []*counter{d}
		}}
	respP := &Response[*counter]{L: "answer",
		F: func(c *counter, alpha Msg) []Reply[*counter] {
			d := c.clone()
			d.m = alpha.(int)
			return []Reply[*counter]{{S: d, Msg: alpha.(int) * 2}}
		}}

	sys := System[*counter]{Procs: []Config[*counter]{
		{Stack: boot(reqP), Data: &counter{n: 21}},
		{Stack: boot(respP), Data: &counter{}},
	}}
	var got *System[*counter]
	var ev Event
	sys.Successors(func(n System[*counter], e Event) { got, ev = &n, e })
	if got == nil {
		t.Fatal("no rendezvous happened")
	}
	if ev.Tau() || ev.Proc != 0 || ev.Peer != 1 {
		t.Fatalf("event = %+v", ev)
	}
	if got.Procs[0].Data.m != 42 {
		t.Fatalf("requester received %d, want 42", got.Procs[0].Data.m)
	}
	if got.Procs[1].Data.m != 21 {
		t.Fatalf("responder saw α = %d, want 21", got.Procs[1].Data.m)
	}
}

func TestRendezvousRefusedWhenResponseReturnsEmpty(t *testing.T) {
	reqP := &Request[*counter]{L: "ask",
		Act: func(c *counter) Msg { return c.n },
		Ret: func(c *counter, beta Msg) []*counter { return []*counter{c} }}
	respP := &Response[*counter]{L: "never",
		F: func(*counter, Msg) []Reply[*counter] { return nil }}
	sys := System[*counter]{Procs: []Config[*counter]{
		{Stack: boot(reqP), Data: &counter{}},
		{Stack: boot(respP), Data: &counter{}},
	}}
	n := 0
	sys.Successors(func(System[*counter], Event) { n++ })
	if n != 0 {
		t.Fatalf("%d transitions from a refused rendezvous", n)
	}
	if !sys.Deadlocked() {
		t.Fatal("system should report deadlock")
	}
}

func TestFusionMergesDetSteps(t *testing.T) {
	cl := func(c *counter) *counter { return c.clone() }
	prog := Seqs[*counter](
		incr("visible", 1),
		Det("f1", cl, func(c *counter) *counter { c.n += 10; return c }),
		Det("f2", cl, func(c *counter) *counter { c.n += 100; return c }),
		incr("visible2", 1000),
	)
	sys := System[*counter]{Procs: []Config[*counter]{
		{Stack: boot(prog), Data: &counter{}},
	}}
	var next System[*counter]
	count := 0
	sys.Successors(func(n System[*counter], _ Event) { next = n; count++ })
	if count != 1 {
		t.Fatalf("%d successors, want 1", count)
	}
	// One visible step must have carried both fused increments.
	if next.Procs[0].Data.n != 111 {
		t.Fatalf("after first visible step n = %d, want 111", next.Procs[0].Data.n)
	}
	// With fusion disabled the same step leaves n = 1.
	sys.DisableFusion = true
	sys.Successors(func(n System[*counter], _ Event) { next = n })
	if next.Procs[0].Data.n != 1 {
		t.Fatalf("unfused step n = %d, want 1", next.Procs[0].Data.n)
	}
}

func TestNormTerminatesAndIsIdempotent(t *testing.T) {
	prog := Seqs[*counter](
		&Skip[*counter]{},
		If1("c", func(c *counter) bool { return false }, incr("dead", 1)),
		incr("live", 1),
	)
	s := &counter{}
	n1 := Norm(boot(prog), s)
	n2 := Norm(n1, s)
	if len(n1) == 0 || n1[0].Label() != "live" {
		t.Fatalf("norm head = %v", AtLabels(Config[*counter]{Stack: n1, Data: s}))
	}
	if !reflect.DeepEqual(labelsOf(n1), labelsOf(n2)) {
		t.Fatalf("Norm not idempotent: %v vs %v", labelsOf(n1), labelsOf(n2))
	}
}

func labelsOf[S any](stack []Com[S]) []string {
	var out []string
	for _, c := range stack {
		out = append(out, c.Label())
	}
	return out
}

func TestIndexStableAndComplete(t *testing.T) {
	a := incr("a", 1)
	b := incr("b", 2)
	prog := &Loop[*counter]{Body: &Choose[*counter]{Alts: []Com[*counter]{
		Seqs[*counter](a, b),
		&While[*counter]{L: "w", C: func(*counter) bool { return false }, Body: a},
	}}}
	ix := NewIndex(encCounter, prog)
	if ix.Len() < 5 {
		t.Fatalf("index too small: %d", ix.Len())
	}
	if ix.ID(a) == ix.ID(b) {
		t.Fatal("distinct nodes share an ID")
	}
	// Same node reachable twice gets one ID.
	if ix.ID(a) != ix.ID(a) {
		t.Fatal("ID not stable")
	}
	enc1 := ix.AppendStack(nil, []Com[*counter]{a, b})
	enc2 := ix.AppendStack(nil, []Com[*counter]{b, a})
	if string(enc1) == string(enc2) {
		t.Fatal("stack encoding ignores order")
	}
}

// TestDecodeStackCanonical: DecodeStack inverts AppendStack and refuses
// every other spelling of a stack: a varint padded with a zero
// continuation group (the length or an entry), a truncation, an identity
// outside the index.
func TestDecodeStackCanonical(t *testing.T) {
	a, b := incr("a", 1), incr("b", 2)
	ix := NewIndex(encCounter, Seqs[*counter](a, b))
	enc := ix.AppendStack(nil, []Com[*counter]{b, a})
	stack, rest, err := ix.DecodeStack(append(enc, 0xAA))
	if err != nil || len(stack) != 2 || stack[0] != b || stack[1] != a || len(rest) != 1 {
		t.Fatalf("DecodeStack(%x) = %v, %x, %v", enc, stack, rest, err)
	}
	padded := func(at int) []byte { // enc with the varint at byte at spelt in two bytes
		out := append([]byte(nil), enc[:at]...)
		out = append(out, enc[at]|0x80, 0)
		return append(out, enc[at+1:]...)
	}
	for name, in := range map[string][]byte{
		"non-minimal length": padded(0),
		"non-minimal entry":  padded(2),
		"truncated":          enc[:2],
		"unknown identity":   {1, byte(ix.Len())},
	} {
		if _, _, err := ix.DecodeStack(in); err == nil {
			t.Errorf("%s: DecodeStack(%x) accepted", name, in)
		}
	}
}

// TestSmallStepAgreesWithAtomicSemantics: running a program to completion
// under the Figure 7 small-step rules reaches the same final data states
// as the derived atomic-action semantics, which runs through the Index's
// unfolding tables. The first program is deterministic; the generated
// ones resolve nested Choose, Choose under Cond, While with an empty body
// and Skip-only alternatives every possible way, and the sets of final
// states must coincide.
func TestSmallStepAgreesWithAtomicSemantics(t *testing.T) {
	progs := []Com[*counter]{Seqs[*counter](
		incr("a", 1),
		If2("if", func(c *counter) bool { return c.n == 1 }, incr("t", 10), incr("e", 20)),
		&While[*counter]{L: "w", C: func(c *counter) bool { return c.n < 100 }, Body: incr("i", 17)},
	)}
	for seed := uint32(0); seed < 150; seed++ {
		// The trailing action keeps a Skip-only alternative from being the
		// last thing a run does: the atomic semantics has no transition
		// for "choose the empty alternative and stop".
		progs = append(progs, Seqs[*counter](genTerminating(seed, 3), incr("end", 0)))
	}
	for i, prog := range progs {
		// finals collects the data states of every terminated run under
		// the given one-step relation.
		finals := func(step func(Config[*counter]) []Config[*counter]) map[counter]bool {
			out := map[counter]bool{}
			budget := 200_000
			var walk func(Config[*counter])
			walk = func(cfg Config[*counter]) {
				if budget--; budget < 0 {
					t.Fatalf("program %d: run tree too large", i)
				}
				next := step(cfg)
				if len(next) == 0 {
					out[*cfg.Data] = true
				}
				for _, n := range next {
					walk(n)
				}
			}
			walk(Config[*counter]{Stack: boot(prog), Data: &counter{}})
			return out
		}
		small := finals(func(cfg Config[*counter]) (next []Config[*counter]) {
			for _, st := range SmallSteps(cfg, nil) {
				next = append(next, st.Next)
			}
			return next
		})
		atomic := finals(func(cfg Config[*counter]) (next []Config[*counter]) {
			TauSuccessors(cfg, func(n Config[*counter], _ string) { next = append(next, n) })
			return next
		})
		if !reflect.DeepEqual(small, atomic) {
			t.Fatalf("program %d: small-step finals %v, atomic finals %v", i, small, atomic)
		}
	}
}

// TestSmallStepControlCosts verifies control unfolding consumes exactly
// one transition per construct under the small-step semantics.
func TestSmallStepControlCosts(t *testing.T) {
	prog := &Seq[*counter]{A: incr("a", 1), B: incr("b", 1)}
	cfg := Config[*counter]{Stack: boot(prog), Data: &counter{}}
	steps := SmallSteps(cfg, nil)
	if len(steps) != 1 || steps[0].Kind != SSTau {
		t.Fatalf("Seq unfold: %d steps", len(steps))
	}
	// After the unfold the head is the first action, data unchanged.
	next := steps[0].Next
	if next.Data.n != 0 || len(next.Stack) != 2 {
		t.Fatalf("after Seq unfold: n=%d stack=%d", next.Data.n, len(next.Stack))
	}
}

// Property: Norm never changes the observable successor set of a
// configuration (quick-checked over random small programs).
func TestNormPreservesSuccessorsQuick(t *testing.T) {
	f := func(seed uint8, start int8) bool {
		// genProg's shapes, then genWide's: nested Choose, Choose under
		// Cond, While with an empty body, Skip-only alternatives, Loops.
		for _, prog := range []Com[*counter]{genProg(int(seed), 3), genWide(uint32(seed), 3), genWide(uint32(seed)+256, 4)} {
			s := &counter{n: int(start)}
			raw := Config[*counter]{Stack: boot(prog), Data: s}
			normed := Config[*counter]{Stack: Norm(raw.Stack, s), Data: s}
			if !sameSuccessorValues(raw, normed) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// genProg deterministically generates a small command tree from a seed.
func genProg(seed, depth int) Com[*counter] {
	if depth == 0 {
		return incr("leaf", seed%7+1)
	}
	switch seed % 5 {
	case 0:
		return Seqs[*counter](genProg(seed/2, depth-1), genProg(seed/3+1, depth-1))
	case 1:
		return If2("c", func(c *counter) bool { return c.n%2 == 0 },
			genProg(seed/2, depth-1), genProg(seed/3+1, depth-1))
	case 2:
		return &Choose[*counter]{Alts: []Com[*counter]{
			genProg(seed/2, depth-1), genProg(seed/3+1, depth-1)}}
	case 3:
		return &Skip[*counter]{}
	default:
		return incr("op", seed%11)
	}
}

func sameSuccessorValues(a, b Config[*counter]) bool {
	collect := func(c Config[*counter]) []int {
		var out []int
		TauSuccessors(c, func(n Config[*counter], _ string) { out = append(out, n.Data.n) })
		sort.Ints(out)
		return out
	}
	return reflect.DeepEqual(collect(a), collect(b))
}

func TestHeadsThroughNestedChoose(t *testing.T) {
	inner := &Choose[*counter]{Alts: []Com[*counter]{incr("x", 1), incr("y", 2)}}
	outer := &Choose[*counter]{Alts: []Com[*counter]{inner, incr("z", 3)}}
	cfg := Config[*counter]{Stack: boot(outer), Data: &counter{}}
	labels := AtLabels(cfg)
	sort.Strings(labels)
	if !reflect.DeepEqual(labels, []string{"x", "y", "z"}) {
		t.Fatalf("labels through nested choose = %v", labels)
	}
}

func TestChooseGuardedByConditions(t *testing.T) {
	// A Choose alternative behind a false condition contributes the
	// conditional's else-continuation, not nothing.
	alt := If2("g", func(c *counter) bool { return c.n > 0 },
		incr("then", 1), incr("else", 2))
	prog := &Choose[*counter]{Alts: []Com[*counter]{alt, incr("other", 3)}}
	cfg := Config[*counter]{Stack: boot(prog), Data: &counter{n: 0}}
	labels := AtLabels(cfg)
	sort.Strings(labels)
	if !reflect.DeepEqual(labels, []string{"else", "other"}) {
		t.Fatalf("labels = %v", labels)
	}
}

func TestOffersExposesAlpha(t *testing.T) {
	req := &Request[*counter]{L: "ask",
		Act: func(c *counter) Msg { return c.n * 2 },
		Ret: func(c *counter, beta Msg) []*counter { return []*counter{c} }}
	resp := &Response[*counter]{L: "echo", F: func(c *counter, alpha Msg) []Reply[*counter] {
		return []Reply[*counter]{{S: c, Msg: alpha}}
	}}
	sys := System[*counter]{Procs: []Config[*counter]{
		{Stack: boot(req), Data: &counter{n: 21}},
		{Stack: boot(resp), Data: &counter{}},
	}}
	var evs []Event
	var nexts []System[*counter]
	sys.Successors(func(n System[*counter], ev Event) { nexts, evs = append(nexts, n), append(evs, ev) })
	if len(evs) != 1 {
		t.Fatalf("offers = %d", len(evs))
	}
	if evs[0].Alpha.(int) != 42 || evs[0].Beta.(int) != 42 {
		t.Fatalf("alpha = %v, beta = %v", evs[0].Alpha, evs[0].Beta)
	}
	if evs[0].Label != "ask" || evs[0].PeerLabel != "echo" {
		t.Fatalf("labels = %q, %q", evs[0].Label, evs[0].PeerLabel)
	}
	if !Terminated(nexts[0].Procs[0]) || !Terminated(nexts[0].Procs[1]) {
		t.Fatal("accept continuation wrong")
	}
}

func TestAnswersOnlyFromResponses(t *testing.T) {
	ask := func(alpha int) *Request[*counter] {
		return &Request[*counter]{L: "ask",
			Act: func(*counter) Msg { return alpha },
			Ret: func(c *counter, beta Msg) []*counter { return []*counter{c} }}
	}
	answers := func(alpha int, responder Com[*counter]) (betas []Msg) {
		sys := System[*counter]{Procs: []Config[*counter]{
			{Stack: boot(ask(alpha)), Data: &counter{}},
			{Stack: boot(responder), Data: &counter{}},
		}}
		sys.Successors(func(_ System[*counter], ev Event) {
			if !ev.Tau() {
				betas = append(betas, ev.Beta)
			}
		})
		return betas
	}
	if got := answers(7, incr("op", 1)); len(got) != 0 {
		t.Fatalf("LocalOp answered a request: %v", got)
	}
	resp := &Response[*counter]{L: "r", F: func(c *counter, alpha Msg) []Reply[*counter] {
		if alpha.(int) != 7 {
			return nil
		}
		return []Reply[*counter]{{S: c, Msg: "ok"}}
	}}
	if got := answers(7, resp); len(got) != 1 || got[0].(string) != "ok" {
		t.Fatalf("answers = %v", got)
	}
	if got := answers(8, resp); len(got) != 0 {
		t.Fatal("guard ignored")
	}
}

func TestFusionStopsAtBranchingOp(t *testing.T) {
	// A Fuse-marked op with two successors must not be merged.
	branch := &LocalOp[*counter]{L: "nd", Fuse: true, F: func(c *counter) []*counter {
		a, b := c.clone(), c.clone()
		a.n = 10
		b.n = 20
		return []*counter{a, b}
	}}
	prog := Seqs[*counter](incr("first", 1), branch)
	sys := System[*counter]{Procs: []Config[*counter]{
		{Stack: boot(prog), Data: &counter{}},
	}}
	var after []int
	sys.Successors(func(n System[*counter], _ Event) {
		after = append(after, n.Procs[0].Data.n)
	})
	// First visible step must NOT have absorbed the branching op.
	if !reflect.DeepEqual(after, []int{1}) {
		t.Fatalf("successors after first step = %v, want [1]", after)
	}
}

func TestFusionStopsAtBlockedOp(t *testing.T) {
	gate := &LocalOp[*counter]{L: "gate", Fuse: true, F: func(c *counter) []*counter {
		if c.n < 10 {
			return nil // blocked
		}
		d := c.clone()
		d.n = 100
		return []*counter{d}
	}}
	prog := Seqs[*counter](incr("first", 1), gate)
	sys := System[*counter]{Procs: []Config[*counter]{
		{Stack: boot(prog), Data: &counter{}},
	}}
	var states []System[*counter]
	sys.Successors(func(n System[*counter], _ Event) { states = append(states, n) })
	if len(states) != 1 || states[0].Procs[0].Data.n != 1 {
		t.Fatalf("blocked fusible op was merged: %+v", states)
	}
}
