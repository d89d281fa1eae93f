package cimp

import (
	"fmt"
	"testing"
)

// The tests in this file run the table-driven engine against the
// reference definition in oracle_test.go on generated programs that reach
// every unfolding case: nested Choose, Choose under Cond, Choose reached
// through a static prefix, While with an empty body, Skip-only
// alternatives, Loops, and fusable steps.

// genWide deterministically generates a command tree from a seed. Every
// While terminates (its body makes progress or its condition is false)
// and every Loop body contains an action.
func genWide(seed uint32, depth int) Com[*counter] { return genKinds(seed, depth, 12) }

// genTerminating is genWide without Loops: every run ends.
func genTerminating(seed uint32, depth int) Com[*counter] { return genKinds(seed, depth, 11) }

func genKinds(seed uint32, depth int, kinds uint32) Com[*counter] {
	next := func() uint32 { // one LCG step per draw
		seed = seed*1664525 + 1013904223
		return seed >> 8
	}
	sub := func() Com[*counter] { return genKinds(next(), depth-1, kinds) }
	even := func(c *counter) bool { return c.n%2 == 0 }
	if depth == 0 {
		return incr(fmt.Sprintf("leaf%d", next()%5), int(next()%7)+1)
	}
	switch next() % kinds {
	case 0:
		return Seqs[*counter](sub(), sub())
	case 1:
		return &Seq[*counter]{A: &Seq[*counter]{A: sub(), B: sub()}, B: sub()} // left-nested
	case 2:
		return If2("c", even, sub(), sub())
	case 3:
		return &Choose[*counter]{Alts: []Com[*counter]{sub(), sub()}}
	case 4:
		return &Skip[*counter]{}
	case 5: // nested Choose
		return &Choose[*counter]{Alts: []Com[*counter]{
			&Choose[*counter]{Alts: []Com[*counter]{sub(), sub()}}, sub()}}
	case 6: // Choose under Cond, with frames pending beneath it
		return Seqs[*counter](
			If2("g", even, &Choose[*counter]{Alts: []Com[*counter]{sub(), sub()}}, sub()),
			sub())
	case 7: // While with an empty body: only ever skipped
		return Seqs[*counter](
			&While[*counter]{L: "w0", C: func(*counter) bool { return false }, Body: &Skip[*counter]{}},
			sub())
	case 8: // While that iterates: the body makes the condition false eventually
		return &While[*counter]{L: "w", C: func(c *counter) bool { return c.n < 6 },
			Body: Seqs[*counter](incr("wi", 3), sub())}
	case 9: // Skip-only alternatives expose the heads of what follows
		return Seqs[*counter](
			&Choose[*counter]{Alts: []Com[*counter]{
				&Skip[*counter]{}, Seqs[*counter](&Skip[*counter]{}, &Skip[*counter]{}), sub()}},
			sub())
	case 10: // fusable register step
		return Seqs[*counter](sub(),
			Det("det", (*counter).clone, func(c *counter) *counter { c.m++; return c }))
	default:
		return &Loop[*counter]{Body: Seqs[*counter](incr("tick", 1), sub())}
	}
}

// checkHeads compares the compiled head enumeration of cfg with the
// reference one: same actions, same continuations, same order.
func checkHeads(t *testing.T, cfg Config[*counter]) []RefHead[*counter] {
	t.Helper()
	want := RefHeads(cfg.Stack, cfg.Data)
	got := AppendHeads(nil, cfg.Stack, cfg.Data)
	if len(got) != len(want) {
		t.Fatalf("heads: got %d, want %d (n=%d)", len(got), len(want), cfg.Data.n)
	}
	for i := range want {
		if got[i].Act != want[i].Act {
			t.Fatalf("head %d: action %q, want %q", i, got[i].Act.Label(), want[i].Act.Label())
		}
		if !SameFrames(got[i].Cont(), want[i].Cont) {
			t.Fatalf("head %d (%q): continuation %v, want %v", i, want[i].Act.Label(),
				labelsOf(got[i].Cont()), labelsOf(want[i].Cont))
		}
	}
	if !SameFrames(Norm(cfg.Stack, cfg.Data), RefNorm(cfg.Stack, cfg.Data)) {
		t.Fatalf("Norm: %v, want %v", labelsOf(Norm(cfg.Stack, cfg.Data)), labelsOf(RefNorm(cfg.Stack, cfg.Data)))
	}
	if Terminated(cfg) != (len(RefNorm(cfg.Stack, cfg.Data)) == 0) {
		t.Fatal("Terminated disagrees with the reference")
	}
	return want
}

// TestCompiledHeadsMatchReference walks generated programs a few τ steps
// deep and requires heads, continuations, Norm and τ successors to match
// the reference at every configuration reached, from raw (unnormalized)
// and normalized stacks alike.
func TestCompiledHeadsMatchReference(t *testing.T) {
	for seed := uint32(0); seed < 400; seed++ {
		prog := genWide(seed, 4)
		NewIndex(encCounter, prog)
		for _, start := range []int{0, 1, 4} {
			layer := []Config[*counter]{{Stack: []Com[*counter]{prog}, Data: &counter{n: start}}}
			for depth := 0; depth < 5 && len(layer) > 0; depth++ {
				var nextLayer []Config[*counter]
				for _, cfg := range layer {
					var want []Config[*counter]
					for _, h := range checkHeads(t, cfg) {
						if op, ok := h.Act.(*LocalOp[*counter]); ok {
							for _, s2 := range op.F(cfg.Data) {
								want = append(want, Config[*counter]{Stack: RefNorm(h.Cont, s2), Data: s2})
							}
						}
					}
					var got []Config[*counter]
					TauSuccessors(cfg, func(n Config[*counter], _ string) { got = append(got, n) })
					if len(got) != len(want) {
						t.Fatalf("seed %d: %d τ successors, want %d", seed, len(got), len(want))
					}
					for i := range want {
						if *got[i].Data != *want[i].Data || !SameFrames(got[i].Stack, want[i].Stack) {
							t.Fatalf("seed %d: τ successor %d: (%+v, %v), want (%+v, %v)", seed, i,
								*got[i].Data, labelsOf(got[i].Stack), *want[i].Data, labelsOf(want[i].Stack))
						}
					}
					nextLayer = append(nextLayer, got...)
				}
				if len(nextLayer) > 64 {
					nextLayer = nextLayer[:64]
				}
				layer = nextLayer
			}
		}
	}
}

// TestCompiledSuccessorsMatchReference runs small two-process systems —
// a generated requester/τ program against a reactive responder — through
// System.Successors and the reference, with fusion on and off, against a
// cold configuration table and again against the warm one.
func TestCompiledSuccessorsMatchReference(t *testing.T) {
	ask := func(label string, k int) Com[*counter] {
		return &Request[*counter]{L: label,
			Act: func(c *counter) Msg { return c.n + k },
			Ret: func(c *counter, beta Msg) []*counter {
				if beta.(int)%5 == 0 {
					return nil // refused
				}
				d := c.clone()
				d.n = beta.(int) % 9
				return []*counter{d}
			}}
	}
	answer := func(label string, mod int) Com[*counter] {
		return &Response[*counter]{L: label, F: func(c *counter, alpha Msg) []Reply[*counter] {
			if alpha.(int)%mod == 0 {
				return nil
			}
			d := c.clone()
			d.m++
			return []Reply[*counter]{{S: d, Msg: alpha.(int) + c.m}, {S: c, Msg: alpha.(int) * 2}}
		}}
	}
	for seed := uint32(0); seed < 120; seed++ {
		client := &Loop[*counter]{Body: &Choose[*counter]{Alts: []Com[*counter]{
			Seqs[*counter](ask("ask1", 1), genWide(seed, 3)),
			Seqs[*counter](genWide(seed+1000, 2), ask("ask2", 2)),
		}}}
		server := &Loop[*counter]{Body: &Choose[*counter]{Alts: []Com[*counter]{
			answer("ans2", 2),
			Seqs[*counter](answer("ans3", 3), Det("note", (*counter).clone, func(c *counter) *counter { c.n++; return c })),
			incr("srv-tau", 1),
		}}}
		ix := NewIndex(encCounter, client, server)
		// Each setting twice: the second pass starts from fresh hand-built
		// configurations that intern, by their bytes, into the tables the
		// first pass filled.
		for _, noFusion := range []bool{false, true, false, true} {
			layer := []System[*counter]{{DisableFusion: noFusion, Procs: []Config[*counter]{
				{Stack: []Com[*counter]{client}, Data: &counter{n: int(seed % 3)}},
				{Stack: []Com[*counter]{server}, Data: &counter{}},
			}}}
			for depth := 0; depth < 4; depth++ {
				var nextLayer []System[*counter]
				for _, sys := range layer {
					type step struct {
						sys System[*counter]
						ev  Event
					}
					var got, want []step
					sys.Successors(func(n System[*counter], ev Event) { got = append(got, step{n, ev}) })
					RefSuccessors(sys, func(n System[*counter], ev Event) { want = append(want, step{n, ev}) })
					if len(got) != len(want) {
						t.Fatalf("seed %d: %d successors, want %d", seed, len(got), len(want))
					}
					if sys.Deadlocked() != (len(want) == 0) {
						t.Fatalf("seed %d: Deadlocked disagrees with the reference", seed)
					}
					for i := range want {
						if got[i].ev != want[i].ev {
							t.Fatalf("seed %d: event %d: %+v, want %+v", seed, i, got[i].ev, want[i].ev)
						}
						for p := range want[i].sys.Procs {
							g, w := got[i].sys.Procs[p], want[i].sys.Procs[p]
							if *g.Data != *w.Data || !SameFrames(g.Stack, w.Stack) {
								t.Fatalf("seed %d: successor %d proc %d: (%+v, %v), want (%+v, %v)", seed, i, p,
									*g.Data, labelsOf(g.Stack), *w.Data, labelsOf(w.Stack))
							}
						}
						nextLayer = append(nextLayer, got[i].sys)
					}
				}
				if len(nextLayer) > 48 {
					nextLayer = nextLayer[:48]
				}
				layer = nextLayer
			}
		}
		if st := ix.MemoStats(); st.StepHits == 0 || st.ReplyHits == 0 || st.ContHits == 0 {
			t.Fatalf("seed %d: the warm passes never read the table back: %+v", seed, st)
		}
	}
}

// TestSoleRequest: the reduction's question is answered without a slice
// and agrees with counting the reference heads.
func TestSoleRequest(t *testing.T) {
	newReq := func() *Request[*counter] {
		return &Request[*counter]{L: "ask", Act: func(*counter) Msg { return 0 },
			Ret: func(c *counter, _ Msg) []*counter { return []*counter{c} }}
	}
	always := func(*counter) bool { return true }
	for _, tc := range []struct {
		name string
		prog func(req Com[*counter]) Com[*counter] // each case compiles its own program around a fresh request
		want bool
	}{
		{"bare request", func(r Com[*counter]) Com[*counter] { return r }, true},
		{"request behind control", func(r Com[*counter]) Com[*counter] {
			return Seqs[*counter](&Skip[*counter]{}, If1("c", always, r))
		}, true},
		{"singleton choose", func(r Com[*counter]) Com[*counter] {
			return &Choose[*counter]{Alts: []Com[*counter]{r}}
		}, true},
		{"request among alternatives", func(r Com[*counter]) Com[*counter] {
			return &Choose[*counter]{Alts: []Com[*counter]{r, incr("a", 1)}}
		}, false},
		{"local op", func(Com[*counter]) Com[*counter] { return incr("a", 1) }, false},
		{"terminated", func(Com[*counter]) Com[*counter] { return &Skip[*counter]{} }, false},
	} {
		req := newReq()
		prog := tc.prog(req)
		NewIndex(encCounter, prog)
		cfg := Config[*counter]{Stack: []Com[*counter]{prog}, Data: &counter{}}
		got, _, ok := SoleRequest(cfg)
		if ok != tc.want || (ok && got != req) {
			t.Errorf("%s: SoleRequest = %v, %v; want %v", tc.name, got, ok, tc.want)
		}
		// The same answer, the slow way: count the reference heads.
		hs := RefHeads(cfg.Stack, cfg.Data)
		isReq := false
		if len(hs) == 1 {
			_, isReq = hs[0].Act.(*Request[*counter])
		}
		if ok != isReq {
			t.Errorf("%s: SoleRequest = %v, reference says %v", tc.name, ok, isReq)
		}
	}
	stack := boot(newReq())
	if n := testing.AllocsPerRun(100, func() {
		SoleRequest(Config[*counter]{Stack: stack})
	}); n != 0 {
		t.Errorf("SoleRequest allocates %v objects per call", n)
	}
}

// TestUnfoldingTables pins the static unfoldings NewIndex records.
func TestUnfoldingTables(t *testing.T) {
	a, b, c := incr("a", 1), incr("b", 1), incr("c", 1)
	cond := If1("if", func(*counter) bool { return true }, c)
	right := &Seq[*counter]{A: a, B: &Seq[*counter]{A: b, B: cond}}
	left := &Seq[*counter]{A: &Seq[*counter]{A: incr("x", 1), B: incr("y", 1)}, B: incr("z", 1)}
	skips := &Seq[*counter]{A: &Skip[*counter]{}, B: &Seq[*counter]{A: &Skip[*counter]{}, B: cond}}
	choose := &Choose[*counter]{Alts: []Com[*counter]{right, left}}
	loop := &Loop[*counter]{Body: choose}
	idle := &Loop[*counter]{Body: &Skip[*counter]{}}
	NewIndex(encCounter, loop, skips, idle)
	for _, tc := range []struct {
		name string
		c    Com[*counter]
		want []Com[*counter]
	}{
		{"action", a, []Com[*counter]{a}},
		{"cond stops unfolding", cond, []Com[*counter]{cond}},
		{"right-nested seq", right, []Com[*counter]{a, right.B}},
		{"left-nested seq", left, []Com[*counter]{left.A.(*Seq[*counter]).A, left.A.(*Seq[*counter]).B, left.B}},
		{"skips fall through", skips, []Com[*counter]{cond}},
		{"choose stops unfolding", choose, []Com[*counter]{choose}},
		{"loop keeps itself beneath its body", loop, []Com[*counter]{choose, loop}},
		{"action-free loop", idle, []Com[*counter]{idle}},
		{"skip", &Skip[*counter]{}, nil},
	} {
		if got := unfolding(tc.c); !SameFrames(got, tc.want) {
			t.Errorf("%s: unfolding = %v, want %v", tc.name, labelsOf(got), labelsOf(tc.want))
		} else if cap(got) != len(got) {
			t.Errorf("%s: table has spare capacity %d: an append could write into it", tc.name, cap(got)-len(got))
		}
	}
	mustPanic(t, "action-free loop", func() { Norm([]Com[*counter]{idle}, &counter{}) })
	mustPanic(t, "while with an empty body that never exits", func() {
		w := &While[*counter]{L: "spin", C: func(*counter) bool { return true }, Body: &Skip[*counter]{}}
		NewIndex(encCounter, w)
		Norm([]Com[*counter]{w}, &counter{})
	})
	mustPanic(t, "stepping an unindexed program", func() {
		Norm([]Com[*counter]{Seqs[*counter](incr("p", 1), incr("q", 1))}, &counter{})
	})
	mustPanic(t, "indexing a program twice", func() { NewIndex(encCounter, loop) })
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", what)
		}
	}()
	f()
}
