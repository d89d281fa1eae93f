package gcmodel

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/cimp"
	"repro/internal/heap"
)

// This file is the state codec. A state's identity is its canonical
// encoding: the fingerprint behind the visited set and the bytes every
// checkpoint stores. One walk per role (mut, gc, sys) names each field of
// the role's local state once, in byte order, and a codec runs the walk in
// one of two directions: appending (AppendFingerprint, EncodeState) or
// reading (DecodeState). Each process's frame stack comes first, written by
// the command index (cimp.Index.AppendStack), which resolves identities
// back to program nodes; the configuration fixes the universe, the field
// count and the process count.
//
// The reader accepts only what the writer emits. Its primitives refuse a
// non-minimal varint, a set padding bit in a bool byte, an unknown tag, and
// a value outside the model: a ref outside NilRef ∪ [0, NRefs), a set
// member at or above NRefs, a field at or above NFields, an enum value its
// type does not define, a lock owner that is no PID, a store buffer longer
// than MaxBuf. So a decode that succeeds re-encodes to exactly the bytes it
// consumed, and a decoded state never indexes past the heap. Checkpoints
// are untrusted bytes: malformed input is an error, never a panic.

// codec runs a walk: with read unset it appends each field to buf; with
// read set it reads each field from buf, latching the first error, after
// which every field reads as zero and nothing more is consumed.
type codec struct {
	buf  []byte // appending: the output; reading: the unread input
	read bool
	err  error

	// Reading only: the model's bounds (Config).
	nrefs, nfields, nmut, maxbuf, budget int
}

// EncodeState appends the serialized form of st to dst. The encoding is
// exactly the canonical fingerprint (AppendFingerprint); the alias
// exists to make call sites that persist states self-documenting.
func (m *Model) EncodeState(dst []byte, st cimp.System[*Local]) []byte {
	return m.AppendFingerprint(dst, st)
}

// DecodeState decodes one system state encoded by EncodeState (equally:
// by AppendFingerprint), returning the state and the remaining bytes.
func (m *Model) DecodeState(data []byte) (cimp.System[*Local], []byte, error) {
	c := codec{buf: data, read: true, nrefs: m.Cfg.NRefs, nfields: m.Cfg.NFields,
		nmut: m.Cfg.NMutators, maxbuf: m.Cfg.MaxBuf, budget: m.Cfg.OpBudget}
	st := cimp.System[*Local]{Procs: make([]cimp.Config[*Local], m.NProcs())}
	for p := range st.Procs {
		stack, rest, err := m.Index.DecodeStack(c.buf)
		if err != nil {
			return cimp.System[*Local]{}, nil, fmt.Errorf("gcmodel: proc %d: %w", p, err)
		}
		// The role is fixed by the position: the collector is PID 0, the
		// system the last PID, the mutators are in between (model.go).
		l := &Local{Self: cimp.PID(p)}
		switch l.Self {
		case GCPID:
			l.GC = &GCLocal{}
		case m.SysPID():
			l.Sys = &SysLocal{Heap: heap.New(m.Cfg.NRefs), Bufs: make([][]WAct, m.NProcs()),
				Pending: make([]bool, m.Cfg.NMutators)}
		default:
			l.Mut = &MutLocal{}
		}
		c.buf = rest
		c.local(l)
		if c.err != nil {
			return cimp.System[*Local]{}, nil, fmt.Errorf("gcmodel: proc %d: %w", p, c.err)
		}
		st.Procs[p] = cimp.Config[*Local]{Stack: stack, Data: l}
	}
	return st, c.buf, nil
}

// AppendFingerprint appends a canonical encoding of the local data state.
func (l *Local) AppendFingerprint(dst []byte) []byte {
	c := codec{buf: dst}
	c.local(l)
	return c.buf
}

// local walks the role tag and the populated role's state. A reader is
// handed a Local whose role is already chosen (DecodeState).
func (c *codec) local(l *Local) {
	switch {
	case l.Mut != nil:
		c.tag('M')
		c.mut(l.Mut)
	case l.GC != nil:
		c.tag('G')
		c.gc(l.GC)
	case l.Sys != nil:
		c.tag('S')
		c.sys(l.Sys)
	}
}

func (c *codec) mut(m *MutLocal) {
	c.set(&m.Roots)
	c.set(&m.WM)
	c.ref(&m.MRef)
	c.bools(&m.MFM, &m.MFlag, &m.Winner, &m.InMark, &m.InMarkDel, &m.RootsDone)
	num(c, &m.MPhase, 0, int(PhSweep))
	c.ref(&m.SSrc)
	c.field(&m.SFld)
	c.ref(&m.SDst)
	c.ref(&m.TmpRef)
	c.set(&m.PendRoots)
	num(c, &m.OpsLeft, 0, c.budget)
	c.bools(&m.HSP)
	num(c, &m.HSTy, 0, int(HSGetWork))
	num(c, &m.HSTag, 0, int(TagWork))
	c.ref(&m.GHG)
	num(c, &m.HP, 0, int(HpIdleMarkSweep))
}

// gc walks the collector's state. Its InMarkDel is not written: the
// collector never runs a deletion barrier, so the bit is always clear.
func (c *codec) gc(g *GCLocal) {
	c.set(&g.W)
	c.bools(&g.FM, &g.FA, &g.MFM, &g.MFlag, &g.Winner, &g.SwFlag, &g.InMark)
	num(c, &g.Phase, 0, int(PhSweep))
	c.ref(&g.MRef)
	num(c, &g.MPhase, 0, int(PhSweep))
	c.ref(&g.Src)
	num(c, &g.FldIdx, 0, c.nfields)
	c.ref(&g.TmpRef)
	c.set(&g.Sweep)
	c.ref(&g.SwRef)
	num(c, &g.MutIdx, 0, c.nmut)
	c.ref(&g.GHG)
}

// sys walks the system's state. A reader's heap, buffer table and pending
// bits come sized from the configuration.
func (c *codec) sys(s *SysLocal) {
	for r := range s.Heap.Objs {
		c.object(&s.Heap.Objs[r])
	}
	c.bools(&s.FA, &s.FM)
	num(c, &s.Phase, 0, int(PhSweep))
	num(c, &s.Lock, -1, c.nmut+1)
	for p := range s.Bufs {
		c.buffer(&s.Bufs[p])
	}
	num(c, &s.HSType, 0, int(HSGetWork))
	num(c, &s.Tag, 0, int(TagWork))
	pending := make([]*bool, 0, 8)
	for i := range s.Pending {
		pending = append(pending, &s.Pending[i])
	}
	c.bools(pending...)
	c.set(&s.W)
}

// object walks one heap slot: a tag byte (0 free, 1 allocated, 2 allocated
// with its flag set), then an allocated object's fields.
func (c *codec) object(p **heap.Object) {
	var tag byte
	if o := *p; o != nil {
		tag = 1
		if o.Flag {
			tag = 2
		}
	}
	c.raw(&tag, 2)
	if tag == 0 {
		return
	}
	if c.read {
		*p = &heap.Object{Flag: tag == 2, Fields: make([]heap.Ref, c.nfields)}
	}
	for f := range (*p).Fields {
		c.ref(&(*p).Fields[f])
	}
}

// buffer walks one TSO store buffer: its length, then each write. A
// write's value is a bool, a Phase or a ref according to its location.
func (c *codec) buffer(b *[]WAct) {
	n, most := len(*b), c.maxbuf
	if most == 0 {
		most = len(c.buf) // unbounded: each write takes at least four bytes
	}
	unum(c, &n, uint64(most))
	if c.read && n > 0 {
		*b = make([]WAct, n)
	}
	for i := range *b {
		w := &(*b)[i]
		num(c, &w.Loc.Kind, 0, int(LField))
		c.ref(&w.Loc.R)
		c.field(&w.Loc.F)
		switch w.Loc.Kind {
		case LPhase:
			num(c, &w.Val, 0, int(PhSweep))
		case LField:
			num(c, &w.Val, -1, c.nrefs-1)
		default:
			num(c, &w.Val, 0, 1)
		}
	}
}

// --- Primitives: each appends, or reads and refuses what it would not
// have written. ---

// ref walks a reference: NilRef or one of the universe's.
func (c *codec) ref(p *heap.Ref) { num(c, p, -1, c.nrefs-1) }

// field walks a field index. Zero is every field register's reset value,
// so it stands even in a model without fields.
func (c *codec) field(p *heap.Field) { num(c, p, 0, max(c.nfields-1, 0)) }

// set walks a reference set, whose members lie below NRefs.
func (c *codec) set(p *heap.RefSet) { unum(c, p, 1<<uint(c.nrefs)-1) }

// tag walks a role tag.
func (c *codec) tag(want byte) {
	got := want
	c.raw(&got, 0xff)
	if got != want {
		c.fail(fmt.Errorf("role tag %q where %q expected", got, want))
	}
}

// bools walks booleans packed eight to a byte, the first in the low bit;
// the last byte's unused high bits are clear.
func (c *codec) bools(bs ...*bool) {
	for len(bs) > 0 {
		k := min(len(bs), 8)
		var b byte
		for i, p := range bs[:k] {
			if *p {
				b |= 1 << i
			}
		}
		c.raw(&b, byte(1<<k-1))
		if c.read {
			for i, p := range bs[:k] {
				*p = b>>i&1 != 0
			}
		}
		bs = bs[k:]
	}
}

// raw walks one byte no greater than most.
func (c *codec) raw(p *byte, most byte) {
	if c.read {
		*p = c.readByte(most)
		return
	}
	c.buf = append(c.buf, *p)
}

// num walks a signed (zigzag) varint in [lo, hi].
func num[T ~int | ~int64](c *codec, p *T, lo, hi int) {
	if c.read {
		*p = T(c.readInt(lo, hi))
		return
	}
	c.buf = binary.AppendVarint(c.buf, int64(*p))
}

// unum walks an unsigned varint no greater than most.
func unum[T ~int | ~uint64](c *codec, p *T, most uint64) {
	if c.read {
		*p = T(c.uvarint(most))
		return
	}
	c.buf = binary.AppendUvarint(c.buf, uint64(*p))
}

// The readers below return zero once an error is latched.

func (c *codec) readByte(most byte) byte {
	switch {
	case c.err != nil:
	case len(c.buf) == 0:
		c.fail(errors.New("truncated"))
	case c.buf[0] > most:
		c.fail(fmt.Errorf("byte %#x above %#x", c.buf[0], most))
	default:
		b := c.buf[0]
		c.buf = c.buf[1:]
		return b
	}
	return 0
}

func (c *codec) readInt(lo, hi int) int64 {
	u := c.uvarint(math.MaxUint64)
	v := int64(u>>1) ^ -int64(u&1)
	if v < int64(lo) || v > int64(hi) {
		c.fail(fmt.Errorf("value %d outside [%d, %d]", v, lo, hi))
		return 0
	}
	return v
}

// uvarint reads one minimal unsigned varint no greater than most:
// binary.AppendUvarint never ends an encoding of more than one byte with a
// zero byte.
func (c *codec) uvarint(most uint64) uint64 {
	if c.err != nil {
		return 0
	}
	v, k := binary.Uvarint(c.buf)
	switch {
	case k <= 0:
		c.fail(errors.New("truncated or overflowing varint"))
	case k > 1 && c.buf[k-1] == 0:
		c.fail(errors.New("non-minimal varint"))
	case v > most:
		c.fail(fmt.Errorf("value %d above %d", v, most))
	default:
		c.buf = c.buf[k:]
		return v
	}
	return 0
}

func (c *codec) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}
