package gcmodel

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/cimp"
	"repro/internal/heap"
)

// serializeConfigs are the shapes the codec must round-trip: the basic
// single-mutator model, a two-mutator model (wider Pending/Bufs arrays),
// and an allocating model (heaps with free references).
func serializeConfigs() map[string]Config {
	two := Config{
		NMutators: 2,
		NRefs:     2,
		NFields:   1,
		MaxBuf:    1,
		OpBudget:  1,
		InitObjects: map[heap.Ref][]heap.Ref{
			0: {1},
			1: {heap.NilRef},
		},
		InitRoots:     []heap.RefSet{heap.SetOf(0), heap.SetOf(1)},
		AllowNilStore: true,
		DisableAlloc:  true,
		DisableLoad:   true,
	}
	alloc := testConfig()
	alloc.NRefs = 3
	alloc.DisableAlloc = false
	return map[string]Config{
		"tiny":        testConfig(),
		"two-mutator": two,
		"alloc":       alloc,
	}
}

// codecWalk hands visit the initial state of m and every state along a
// seeded 400-step random walk from it.
func codecWalk(t testing.TB, m *Model, visit func(cimp.System[*Local])) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	st := m.Initial()
	visit(st)
	for i := 0; i < 400; i++ {
		var cands []cimp.System[*Local]
		m.Successors(st, func(n cimp.System[*Local], ev cimp.Event) {
			cands = append(cands, n)
		})
		if len(cands) == 0 {
			t.Fatalf("deadlock at step %d", i)
		}
		st = cands[rng.Intn(len(cands))]
		visit(st)
	}
}

// TestStateCodecRoundTrip: along a random walk, every state must decode
// from its own canonical encoding back to a state with the identical
// encoding, and the decode must consume exactly the encoded bytes.
func TestStateCodecRoundTrip(t *testing.T) {
	for name, cfg := range serializeConfigs() {
		t.Run(name, func(t *testing.T) {
			m := build(t, cfg)
			codecWalk(t, m, func(st cimp.System[*Local]) {
				enc := m.EncodeState(nil, st)
				// Trailing sentinel proves DecodeState stops at the
				// state boundary.
				dec, rest, err := m.DecodeState(append(append([]byte(nil), enc...), 0xAA))
				if err != nil {
					t.Fatalf("decode: %v", err)
				}
				if len(rest) != 1 || rest[0] != 0xAA {
					t.Fatalf("decode consumed wrong length: %d trailing bytes", len(rest))
				}
				re := m.EncodeState(nil, dec)
				if !bytes.Equal(enc, re) {
					t.Fatalf("re-encoding differs:\n  in:  %x\n  out: %x", enc, re)
				}
			})
		})
	}
}

// TestStateCodecDecodedStatesStep: a decoded state must be usable, not
// just printable — its successor set must match the original state's
// successor set fingerprint for fingerprint.
func TestStateCodecDecodedStatesStep(t *testing.T) {
	m := build(t, testConfig())
	st := m.Initial()
	// Walk a few steps in, then compare successor enumerations.
	for i := 0; i < 5; i++ {
		var first cimp.System[*Local]
		taken := false
		m.Successors(st, func(n cimp.System[*Local], ev cimp.Event) {
			if !taken {
				first, taken = n, true
			}
		})
		if !taken {
			t.Fatal("deadlock")
		}
		st = first
	}
	enc := m.EncodeState(nil, st)
	dec, _, err := m.DecodeState(enc)
	if err != nil {
		t.Fatal(err)
	}
	var want, got []string
	m.Successors(st, func(n cimp.System[*Local], ev cimp.Event) {
		want = append(want, m.Fingerprint(n))
	})
	m.Successors(dec, func(n cimp.System[*Local], ev cimp.Event) {
		got = append(got, m.Fingerprint(n))
	})
	if len(want) != len(got) {
		t.Fatalf("successor counts differ: %d vs %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("successor %d differs", i)
		}
	}
}

// canonical decodes data and, when that succeeds, requires the decoded
// state to re-encode to exactly the bytes the decode consumed.
func canonical(t *testing.T, m *Model, data []byte) {
	t.Helper()
	dec, rest, err := m.DecodeState(data)
	if err != nil {
		return
	}
	if re, used := m.EncodeState(nil, dec), data[:len(data)-len(rest)]; !bytes.Equal(re, used) {
		t.Fatalf("decoded a state that re-encodes differently:\n  in:  %x\n  out: %x", used, re)
	}
}

// TestStateCodecRejectsCorruption: every truncation of a valid encoding,
// and every single-byte XOR of it with a bit or with 0x41 or 0xff, either
// fails to decode or decodes to a state that re-encodes to exactly the
// bytes consumed. A decoder that accepted a non-minimal varint or a stray
// bool bit would decode such a mutation to an already-encoded state.
func TestStateCodecRejectsCorruption(t *testing.T) {
	for name, cfg := range serializeConfigs() {
		m := build(t, cfg)
		enc := m.EncodeState(nil, m.Initial())
		for cut := 0; cut < len(enc); cut++ {
			if _, _, err := m.DecodeState(enc[:cut]); err == nil {
				t.Fatalf("%s: truncation at %d of %d decoded", name, cut, len(enc))
			}
		}
		for i := range enc {
			for _, x := range []byte{1, 2, 4, 8, 0x10, 0x20, 0x40, 0x80, 0x41, 0xff} {
				mut := append([]byte(nil), enc...)
				mut[i] ^= x
				canonical(t, m, mut)
			}
		}
	}
}

// FuzzDecodeState: for any input, DecodeState over any of
// serializeConfigs' models either fails or returns a state whose encoding
// is exactly the bytes it consumed, and never panics. The seeds are the
// encodings along TestStateCodecRoundTrip's walk; testdata/fuzz holds
// inputs an earlier decoder accepted.
func FuzzDecodeState(f *testing.F) {
	cfgs := serializeConfigs()
	names := make([]string, 0, len(cfgs))
	for name := range cfgs {
		names = append(names, name)
	}
	sort.Strings(names)
	models := make([]*Model, len(names))
	for i, name := range names {
		m, err := Build(cfgs[name])
		if err != nil {
			f.Fatal(err)
		}
		models[i] = m
		codecWalk(f, m, func(st cimp.System[*Local]) {
			f.Add(uint8(i), m.EncodeState(nil, st))
		})
	}
	f.Fuzz(func(t *testing.T, model uint8, data []byte) {
		canonical(t, models[int(model)%len(models)], data)
	})
}

// TestStateCodecRefusesValuesOutsideModel: a state that holds a value its
// model cannot reach still encodes, but must not decode: each case edits
// one field of a reachable state of testConfig (NRefs 2, NFields 1,
// MaxBuf 2, OpBudget 1, one mutator) out of its range.
func TestStateCodecRefusesValuesOutsideModel(t *testing.T) {
	m := build(t, testConfig())
	gc, mut, sys := int(GCPID), 1, int(m.SysPID())
	write := func(l *Local, ws ...WAct) { l.Sys.Bufs[mut] = ws }
	for _, tc := range []struct {
		name string
		pid  int
		edit func(*Local)
	}{
		{"ref past the universe", mut, func(l *Local) { l.Mut.SDst = 2 }},
		{"ref below NilRef", gc, func(l *Local) { l.GC.Src = -2 }},
		{"heap field ref past the universe", sys, func(l *Local) { l.Sys.Heap.Objs[0].Fields[0] = 2 }},
		{"set member at NRefs", mut, func(l *Local) { l.Mut.Roots = l.Mut.Roots.Add(2) }},
		{"set member at 63", sys, func(l *Local) { l.Sys.W = l.Sys.W.Add(63) }},
		{"field register at NFields", mut, func(l *Local) { l.Mut.SFld = 1 }},
		{"buffered write's field at NFields", sys, func(l *Local) {
			write(l, WAct{Loc: Loc{Kind: LField, R: 0, F: 1}, Val: RefVal(1)})
		}},
		{"Phase", sys, func(l *Local) { l.Sys.Phase = PhSweep + 1 }},
		{"HSType", mut, func(l *Local) { l.Mut.HSTy = HSGetWork + 1 }},
		{"RoundTag", sys, func(l *Local) { l.Sys.Tag = TagWork + 1 }},
		{"HandshakePhase", mut, func(l *Local) { l.Mut.HP = -1 }},
		{"LocKind", sys, func(l *Local) { write(l, WAct{Loc: Loc{Kind: LField + 1}}) }},
		{"lock owner past the PIDs", sys, func(l *Local) { l.Sys.Lock = cimp.PID(m.NProcs()) }},
		{"lock owner below -1", sys, func(l *Local) { l.Sys.Lock = -2 }},
		{"store buffer past MaxBuf", sys, func(l *Local) {
			write(l, WAct{Loc: Loc{Kind: LFA}}, WAct{Loc: Loc{Kind: LFM}}, WAct{Loc: Loc{Kind: LPhase}})
		}},
		{"buffered bool not 0 or 1", sys, func(l *Local) { write(l, WAct{Loc: Loc{Kind: LFM}, Val: 2}) }},
		{"buffered ref past the universe", sys, func(l *Local) {
			write(l, WAct{Loc: Loc{Kind: LField, R: 0, F: 0}, Val: RefVal(2)})
		}},
		{"operations past OpBudget", mut, func(l *Local) { l.Mut.OpsLeft = 2 }},
		{"field index past NFields", gc, func(l *Local) { l.GC.FldIdx = 2 }},
		{"mutator index past NMutators", gc, func(l *Local) { l.GC.MutIdx = 2 }},
	} {
		enc := m.EncodeState(nil, edited(m.Initial(), tc.pid, tc.edit))
		if _, _, err := m.DecodeState(enc); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("proc %d:", tc.pid)) {
			t.Errorf("%s: DecodeState = %v, want an error at proc %d", tc.name, err, tc.pid)
		}
	}
}
