package tso

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// This file provides a tiny assembly-like thread language and an
// exhaustive explorer over the TSO machine, used by package litmus to
// validate the memory substrate against the published x86-TSO litmus
// tests (experiment E8/E13).

// Reg is a thread-local register index.
type Reg int

// Instr is one instruction of a litmus thread program.
type Instr interface{ isInstr() }

// Ld loads the value at Addr into Dst.
type Ld struct {
	Dst  Reg
	Addr Addr
}

// St stores the immediate Val to Addr (via the store buffer).
type St struct {
	Addr Addr
	Val  Word
}

// MFence blocks until the thread's store buffer has drained.
type MFence struct{}

// CAS is a locked compare-and-swap: if memory at Addr equals Old it is set
// to New. Dst receives 1 on success, 0 on failure. The store buffer is
// flushed either way.
type CAS struct {
	Dst      Reg
	Addr     Addr
	Old, New Word
}

// XchgAdd is a locked fetch-and-add; Dst receives the previous value.
type XchgAdd struct {
	Dst  Reg
	Addr Addr
	Inc  Word
}

func (Ld) isInstr()      {}
func (St) isInstr()      {}
func (MFence) isInstr()  {}
func (CAS) isInstr()     {}
func (XchgAdd) isInstr() {}

// Program is a set of litmus threads with an initial memory image.
type Program struct {
	// Threads holds each thread's instruction sequence.
	Threads [][]Instr
	// NumAddrs sizes the memory (addresses 0..NumAddrs-1, initially 0).
	NumAddrs int
	// NumRegs is the per-thread register file size.
	NumRegs int
	// InitMem optionally overrides initial memory contents.
	InitMem map[Addr]Word
}

// Outcome is a terminal valuation of all registers and memory.
type Outcome struct {
	Regs [][]Word
	Mem  []Word
}

// Key renders the outcome canonically, e.g. "r0:0=1 r1:0=0 | mem=[1 1]".
func (o Outcome) Key() string {
	s := ""
	for t, regs := range o.Regs {
		for r, v := range regs {
			if s != "" {
				s += " "
			}
			s += fmt.Sprintf("%d:r%d=%d", t, r, v)
		}
	}
	return s + fmt.Sprintf(" | mem=%v", o.Mem)
}

type progState struct {
	pc   []int
	regs [][]Word
	m    *Machine
}

func (ps *progState) clone() *progState {
	n := &progState{
		pc:   append([]int(nil), ps.pc...),
		regs: make([][]Word, len(ps.regs)),
		m:    ps.m.Clone(),
	}
	for i, r := range ps.regs {
		n.regs[i] = append([]Word(nil), r...)
	}
	return n
}

func (ps *progState) fingerprint() string {
	var b []byte
	for _, p := range ps.pc {
		b = binary.AppendUvarint(b, uint64(p))
	}
	for _, regs := range ps.regs {
		for _, v := range regs {
			b = binary.AppendVarint(b, int64(v))
		}
	}
	b = ps.m.AppendFingerprint(b)
	return string(b)
}

// Model selects the memory semantics for exploration.
type Model int

const (
	// TSO uses the full store-buffer machine.
	TSO Model = iota
	// SC commits every store immediately (sequential consistency): the
	// oracle the paper contrasts against (§2.4).
	SC
)

// Explore exhaustively enumerates all interleavings (and, under TSO, all
// buffer-commit schedules) of the program and returns the set of terminal
// outcomes keyed canonically.
func Explore(p Program, model Model) map[string]Outcome {
	init := &progState{
		pc:   make([]int, len(p.Threads)),
		regs: make([][]Word, len(p.Threads)),
		m:    New(len(p.Threads), p.NumAddrs),
	}
	for i := range init.regs {
		init.regs[i] = make([]Word, p.NumRegs)
	}
	for a, v := range p.InitMem {
		init.m.Mem[a] = v
	}

	outcomes := make(map[string]Outcome)
	seen := map[string]struct{}{init.fingerprint(): {}}
	stack := []*progState{init}

	for len(stack) > 0 {
		ps := stack[len(stack)-1]
		stack = stack[:len(stack)-1]

		progressed := false
		visit := func(ns *progState) {
			fp := ns.fingerprint()
			if _, ok := seen[fp]; ok {
				return
			}
			seen[fp] = struct{}{}
			stack = append(stack, ns)
		}

		for t := range p.Threads {
			tid := ThreadID(t)
			// Internal commit transition (TSO only).
			if model == TSO && ps.m.CanCommit(tid) {
				progressed = true
				ns := ps.clone()
				ns.m.Commit(tid)
				visit(ns)
			}
			if ps.pc[t] >= len(p.Threads[t]) {
				continue
			}
			in := p.Threads[t][ps.pc[t]]
			if ns, ok := stepInstr(ps, tid, in, model); ok {
				progressed = true
				visit(ns)
			}
		}

		if !progressed {
			done := true
			for t := range p.Threads {
				if ps.pc[t] < len(p.Threads[t]) {
					done = false
					break
				}
			}
			if !done {
				panic("tso: litmus program deadlocked")
			}
			o := Outcome{Regs: ps.regs, Mem: ps.m.Mem}
			outcomes[o.Key()] = o
		}
	}
	return outcomes
}

func stepInstr(ps *progState, t ThreadID, in Instr, model Model) (*progState, bool) {
	switch in := in.(type) {
	case Ld:
		if ps.m.Blocked(t) {
			return nil, false
		}
		ns := ps.clone()
		ns.regs[t][in.Dst] = ns.m.Read(t, in.Addr)
		ns.pc[t]++
		return ns, true
	case St:
		ns := ps.clone()
		if model == SC {
			if ns.m.Blocked(t) {
				return nil, false
			}
			ns.m.Mem[in.Addr] = in.Val
		} else {
			ns.m.Buffer(t, in.Addr, in.Val)
		}
		ns.pc[t]++
		return ns, true
	case MFence:
		if !ps.m.FenceReady(t) {
			return nil, false
		}
		ns := ps.clone()
		ns.pc[t]++
		return ns, true
	case CAS:
		if !ps.m.CanLock(t) || ps.m.Blocked(t) {
			return nil, false
		}
		ns := ps.clone()
		ok := ns.m.CAS(t, in.Addr, in.Old, in.New)
		if ok {
			ns.regs[t][in.Dst] = 1
		} else {
			ns.regs[t][in.Dst] = 0
		}
		ns.pc[t]++
		return ns, true
	case XchgAdd:
		if !ps.m.CanLock(t) || ps.m.Blocked(t) {
			return nil, false
		}
		ns := ps.clone()
		ns.m.DrainAll(t)
		old := ns.m.Mem[in.Addr]
		ns.m.Mem[in.Addr] = old + in.Inc
		ns.regs[t][in.Dst] = old
		ns.pc[t]++
		return ns, true
	default:
		panic(fmt.Sprintf("tso: unknown instruction %T", in))
	}
}

// OutcomeKeys returns the sorted keys of an outcome set, for stable
// reporting.
func OutcomeKeys(m map[string]Outcome) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
