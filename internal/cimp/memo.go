package cimp

import (
	"hash/maphash"
	"reflect"
	"sync"
	"sync/atomic"
	"unsafe"
)

// This file is the configuration table: the step relation, computed once
// per process configuration instead of once per global state.
//
// CIMP has no shared state (paper Figure 8). A τ step is a function of
// one process's configuration; of a rendezvous, the request α is a
// function of the requester's configuration, the replies a function of
// (responder configuration, α), and the requester's continuations a
// function of (requester configuration, head, β). A model's global states
// are built from far fewer process configurations than there are states —
// store buffers multiply global states, not per-process ones — so the
// table interns configurations by their canonical bytes and hangs the
// step relation off each one:
//
//	record          canonical Config, canonical bytes (the configuration's
//	                segment of the model fingerprint)
//	record.steps    heads in program order, the boxed α of each Request
//	                head, the τ successors            (filled on first expansion)
//	record.replies  α → replies in handler order, the empty answer
//	                included                          (filled per α asked)
//	record.conts    (head, β) → accepted successors, the refusal
//	                included                          (filled per β heard)
//
// Everything is computed by the same code that runs without the table
// (AppendHeads, Head.after, the commands' own functions), in the same
// order, so an enumeration that hits and one that misses yield the same
// transitions in the same order; correctness never depends on a hit.
//
// The contract this rests on: LocalOp.F, Request.Act, Request.Ret,
// Response.F and every condition are pure functions of their arguments,
// and a data state is never modified once a configuration holding it has
// been stepped (com.go already requires step functions to treat their
// argument as read-only). Messages must be comparable values: α and β are
// interned to small integers through a map keyed by the message, and one
// whose type is not comparable is simply never cached.
//
// Readers take no lock. A record is immutable once its id has been handed
// out; its three tables are published through atomic pointers. A side
// table is a chain of immutable runs, one per key: a new key's run is
// pushed on the front under a striped mutex, after a walk that makes sure
// the key has none yet, and a reader walks whichever chain it loaded —
// storing a key costs one link, not a copy of the table. The bytes → id
// map is sharded and touched only to intern a configuration that carries
// no valid id: a hand-built or decoded one, or a successor computed for
// the first time.
//
// Growth is bounded by retiring the table. A breadth-first search works
// on a moving window of configurations, and a table that kept every
// configuration it ever saw would hold more memory than the states whose
// sharing it buys (the headline model: 53k configurations, 68 MB with
// their data states, against a visited set of 24 MB). So a table that
// reaches its bound is replaced by an empty one: the enumeration in
// flight finishes on the old table — what it can no longer store it
// computes and does not store — and the ids it hands out, like every id
// already on a frontier, stop resolving, which the identity check in
// find turns into a re-intern by bytes. The bound starts at baseRecords
// and doubles, up to maxRecords, whenever a table filled so fast that it
// was evidently smaller than the window.

const (
	baseRecords = 1 << 12 // configurations per table, to start with
	maxRecords  = 1 << 18
	// entriesPerRecord bounds the stored tables (step tables, replies,
	// continuations) relative to the configurations: the headline model
	// stores six per configuration.
	entriesPerRecord = 16
	maxMsgs          = 1 << 16
	// A table that took fewer than thrashLookups step-table lookups per
	// configuration to fill was refilling, not caching: its successor is
	// twice the size.
	thrashLookups = 16

	chunkBits   = 10
	chunkSize   = 1 << chunkBits
	memoShards  = 64
	memoStripes = 64
	statStripes = 16

	// unfusedBit marks the ids of the DisableFusion table: fusion changes
	// continuations, so the two semantics never share a record.
	unfusedBit = 1 << 31
)

// MemoStats are the configuration table's counters, summed over the
// fused and (when a DisableFusion system was stepped) unfused tables.
type MemoStats struct {
	// Configs and Entries are the configurations and the tables (step
	// tables, replies, continuations) currently stored, Bytes the memory
	// they retain: records, canonical bytes and table entries. The data
	// states the records keep alive are the model's and are not counted.
	Configs, Entries int
	Bytes            int64
	// Interned counts every configuration ever added, Retired the tables
	// dropped for reaching their bound.
	Interned, Retired int64
	// Hits and misses per table, counted once per lookup in
	// System.Successors: a configuration's step table, a (responder, α)
	// reply set, a (requester, head, β) continuation set.
	StepHits, StepMisses   int64
	ReplyHits, ReplyMisses int64
	ContHits, ContMisses   int64
}

// Sub returns the counters accumulated since prev was taken: the
// cumulative ones are differences, the sizes are s's.
func (s MemoStats) Sub(prev MemoStats) MemoStats {
	s.Interned -= prev.Interned
	s.Retired -= prev.Retired
	s.StepHits -= prev.StepHits
	s.StepMisses -= prev.StepMisses
	s.ReplyHits -= prev.ReplyHits
	s.ReplyMisses -= prev.ReplyMisses
	s.ContHits -= prev.ContHits
	s.ContMisses -= prev.ContMisses
	return s
}

// record is one interned configuration.
type record[S any] struct {
	cfg Config[S] // canonical; cfg.id is this record's id, 0 for a record that is not in the table
	key string    // AppendStack(cfg.Stack) ++ enc(cfg.Data); "" when not in the table

	steps   atomic.Pointer[steps[S]]
	replies atomic.Pointer[chain[reply[S]]] // one run per aid, the last asked first
	conts   atomic.Pointer[chain[cont[S]]]  // one run per (head, bid), the last heard first
}

// chain is a side table: the run of entries stored for one key, never
// modified once published, and the runs stored before it.
type chain[T any] struct {
	ents []T
	next *chain[T]
}

// steps is what a configuration can do on its own.
type steps[S any] struct {
	acts   []Com[S]   // the heads' actions in program order
	offers []offer[S] // the Request heads, in program order
	taus   []tau[S]   // the τ successors: LocalOp heads in program order, successors in F's order
	nresp  int        // number of Response heads
}

type offer[S any] struct {
	req   *Request[S]
	alpha Msg    // req.Act(data), boxed once
	head  uint32 // index into acts
	aid   uint32 // alpha's interned id, 0 when it has none
}

type tau[S any] struct {
	next *record[S]
	op   *LocalOp[S]
}

// reply is one answer of a responder to the α with id aid: the
// responder's successor, the β sent back and the Response that produced
// it. A stored run consisting of one reply with a nil next records that
// the responder has no answer.
type reply[S any] struct {
	next     *record[S]
	resp     *Response[S]
	beta     Msg
	aid, bid uint32
}

// cont is one successor of a requester whose head heard the β with id
// bid. A stored run consisting of one cont with a nil next records that
// the requester refuses β.
type cont[S any] struct {
	next      *record[S]
	head, bid uint32
}

// tally counts the lookups of one goroutine's enumerations in its Scratch;
// Scratch.Flush adds it to the index's striped counters.
type tally struct {
	stepHit, stepMiss   uint32
	replyHit, replyMiss uint32
	contHit, contMiss   uint32
}

type memoShard struct {
	mu  sync.Mutex
	ids map[string]uint32
	_   [48]byte // keep neighbouring shards' locks off one cache line
}

type statStripe struct {
	stepHit, stepMiss   atomic.Int64
	replyHit, replyMiss atomic.Int64
	contHit, contMiss   atomic.Int64
	_                   [16]byte
}

// memo is one configuration table: the configurations of one Index under
// one fusion setting, until it is retired.
type memo[S any] struct {
	ix     *Index[S]
	fusion bool
	idBit  uint32 // unfusedBit for the DisableFusion table

	bound uint32 // configurations this table may hold
	born  int64  // the index's step-table lookups when the table was created
	// full is set by whoever finds the table at its bound; the table is
	// retired then, and stores nothing more for the enumerations still
	// running on it.
	full atomic.Bool

	chunks  []atomic.Pointer[[chunkSize]atomic.Pointer[record[S]]]
	nrec    atomic.Uint32
	nent    atomic.Int64
	bytes   atomic.Int64
	seed    maphash.Seed
	shards  [memoShards]memoShard
	stripes [memoStripes]sync.Mutex

	msgMu  sync.RWMutex
	msgIDs map[Msg]uint32
	msgs   []Msg // msgs[id-1] is the one boxed copy of message id every table entry shares
}

func newMemo[S any](ix *Index[S], fusion bool, bound uint32) *memo[S] {
	m := &memo[S]{ix: ix, fusion: fusion, bound: bound, born: ix.stepLookups(), seed: maphash.MakeSeed()}
	if !fusion {
		m.idBit = unfusedBit
	}
	m.chunks = make([]atomic.Pointer[[chunkSize]atomic.Pointer[record[S]]], bound/chunkSize+1)
	return m
}

func (ix *Index[S]) slot(fusion bool) *atomic.Pointer[memo[S]] {
	if fusion {
		return &ix.memos[0]
	}
	return &ix.memos[1]
}

// memo returns the current table for the given fusion setting, creating
// the first one on first use.
func (ix *Index[S]) memo(fusion bool) *memo[S] {
	slot := ix.slot(fusion)
	if m := slot.Load(); m != nil {
		return m
	}
	slot.CompareAndSwap(nil, newMemo(ix, fusion, ix.memoBase))
	return slot.Load()
}

// retire replaces a table that has reached its bound with an empty one,
// twice the size if this one filled too fast to have been caching.
func (m *memo[S]) retire() {
	if m.full.Swap(true) {
		return
	}
	bound := m.bound
	if m.ix.stepLookups()-m.born < thrashLookups*int64(bound) && bound < m.ix.memoMax {
		bound *= 2
	}
	m.ix.retired.Add(1)
	m.ix.slot(m.fusion).CompareAndSwap(m, newMemo(m.ix, m.fusion, bound))
}

// indexOf returns the Index cfg's program belongs to, or nil when the
// stack is empty, has a Skip on top, or is not indexed.
func indexOf[S any](cfg Config[S]) *Index[S] {
	if len(cfg.Stack) == 0 {
		return nil
	}
	if n := cfg.Stack[0].meta(); n != nil {
		return n.ix
	}
	return nil
}

// sameConfig reports whether a and b are the same configuration by
// identity: the same data value and the same stack backing. Identity, not
// content, so it is cheap — and so an id copied onto a configuration whose
// data or stack was then replaced, or an id that outlived its table, can
// never resolve to another configuration's record.
func sameConfig[S any](a, b Config[S]) bool {
	if len(a.Stack) != len(b.Stack) || any(a.Data) != any(b.Data) {
		return false
	}
	return len(a.Stack) == 0 || &a.Stack[0] == &b.Stack[0]
}

// at returns the record with the given id (table bit stripped), or nil.
func (m *memo[S]) at(id uint32) *record[S] {
	c := int(id >> chunkBits)
	if id == 0 || c >= len(m.chunks) {
		return nil
	}
	chunk := m.chunks[c].Load()
	if chunk == nil {
		return nil
	}
	return chunk[id&(chunkSize-1)].Load()
}

// find resolves cfg's id to its record, or nil when cfg carries none or
// one that is not this table's.
func (m *memo[S]) find(cfg Config[S]) *record[S] {
	if cfg.id == 0 || cfg.id&unfusedBit != m.idBit {
		return nil
	}
	r := m.at(cfg.id &^ unfusedBit)
	if r == nil || !sameConfig(r.cfg, cfg) {
		return nil
	}
	return r
}

// lookup is find through whichever of the index's tables cfg's id names:
// what the configuration-only entry points (At, SoleRequest,
// AppendConfig) use. ix may be nil.
func (ix *Index[S]) lookup(cfg Config[S]) (*memo[S], *record[S]) {
	if cfg.id == 0 || ix == nil {
		return nil, nil
	}
	m := ix.slot(cfg.id&unfusedBit == 0).Load()
	if m == nil {
		return nil, nil
	}
	return m, m.find(cfg)
}

// intern returns the table's record for cfg, adding one if the
// configuration is new and the table has room; nil means cfg cannot be
// (or can no longer be) interned and is stepped without the table. A
// configuration that has to be found by its bytes is encoded into sc's
// buffer.
func (m *memo[S]) intern(cfg Config[S], sc *Scratch[S]) *record[S] {
	if r := m.find(cfg); r != nil {
		return r
	}
	if m.ix == nil || m.ix.enc == nil || !m.ix.comparable {
		return nil
	}
	if len(cfg.Stack) > 0 && indexOf(cfg) != m.ix {
		return nil // a process of another program: AppendStack could not name its frames
	}
	key := m.ix.enc(cfg.Data, m.ix.AppendStack(sc.key[:0], cfg.Stack))
	sc.key = key
	sh := &m.shards[maphash.Bytes(m.seed, key)%memoShards]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if id, ok := sh.ids[string(key)]; ok {
		return m.at(id)
	}
	if m.full.Load() {
		return nil
	}
	id := m.nrec.Add(1)
	if id > m.bound {
		m.nrec.Add(^uint32(0))
		m.retire()
		return nil
	}
	r := &record[S]{cfg: cfg, key: string(key)}
	r.cfg.id = id | m.idBit
	slot := &m.chunks[id>>chunkBits]
	chunk := slot.Load()
	if chunk == nil {
		slot.CompareAndSwap(nil, new([chunkSize]atomic.Pointer[record[S]]))
		chunk = slot.Load()
	}
	chunk[id&(chunkSize-1)].Store(r)
	if sh.ids == nil {
		sh.ids = make(map[string]uint32)
	}
	sh.ids[r.key] = id
	m.ix.interned.Add(1)
	m.bytes.Add(int64(unsafe.Sizeof(*r)) + int64(len(key)) + 32)
	return r
}

// successor is the record a computed successor configuration is carried
// in: the table's, or one of its own when the table cannot take it.
func (m *memo[S]) successor(cfg Config[S], sc *Scratch[S]) *record[S] {
	if r := m.intern(cfg, sc); r != nil {
		return r
	}
	cfg.id = 0
	return &record[S]{cfg: cfg}
}

// msg interns a message: it returns the table's boxed copy of x and its
// id, or x itself and 0 when x cannot be a map key or the message table
// is full.
func (m *memo[S]) msg(x Msg) (Msg, uint32) {
	if m.ix == nil || m.ix.enc == nil {
		return x, 0
	}
	if x != nil && !reflect.TypeOf(x).Comparable() {
		return x, 0
	}
	m.msgMu.RLock()
	id, ok := m.msgIDs[x]
	if ok {
		x = m.msgs[id-1]
	}
	m.msgMu.RUnlock()
	if ok {
		return x, id
	}
	m.msgMu.Lock()
	defer m.msgMu.Unlock()
	if id, ok := m.msgIDs[x]; ok {
		return m.msgs[id-1], id
	}
	if len(m.msgs) >= maxMsgs {
		return x, 0
	}
	if m.msgIDs == nil {
		m.msgIDs = make(map[Msg]uint32)
	}
	m.msgs = append(m.msgs, x)
	id = uint32(len(m.msgs))
	m.msgIDs[x] = id
	return x, id
}

// room claims one table entry of the given size, or reports that the
// table is full (retiring it if it just became so).
func (m *memo[S]) room(size int) bool {
	if m.full.Load() {
		return false
	}
	if m.nent.Add(1) > entriesPerRecord*int64(m.bound) {
		m.nent.Add(-1)
		m.retire()
		return false
	}
	m.bytes.Add(int64(size))
	return true
}

// release gives back an entry room claimed for a table that a concurrent
// enumeration turned out to have stored first.
func (m *memo[S]) release(size int) {
	m.nent.Add(-1)
	m.bytes.Add(-int64(size))
}

func (m *memo[S]) stripe(r *record[S]) *sync.Mutex {
	return &m.stripes[r.cfg.id%memoStripes]
}

// stepsOf returns cfg's step table: r's when r has one, else computed
// (and stored, when r is in the table and there is room).
func (m *memo[S]) stepsOf(r *record[S], cfg Config[S], sc *Scratch[S]) *steps[S] {
	t := &sc.tally
	if r != nil {
		if st := r.steps.Load(); st != nil {
			t.stepHit++
			return st
		}
	}
	t.stepMiss++
	st := m.computeSteps(cfg, sc)
	size := int(unsafe.Sizeof(*st)) + len(st.acts)*int(unsafe.Sizeof(st.acts[0])) +
		len(st.offers)*int(unsafe.Sizeof(offer[S]{})) + len(st.taus)*int(unsafe.Sizeof(tau[S]{}))
	if r == nil || !m.room(size) {
		return st
	}
	if !r.steps.CompareAndSwap(nil, st) {
		m.release(size)
		return r.steps.Load()
	}
	return st
}

// computeSteps enumerates cfg's heads and fires its LocalOps: the τ half
// of System.successors, for one process.
func (m *memo[S]) computeSteps(cfg Config[S], sc *Scratch[S]) *steps[S] {
	var buf [headScratch]Head[S]
	hs := AppendHeads(buf[:0], cfg.Stack, cfg.Data)
	st := &steps[S]{acts: make([]Com[S], len(hs))}
	for i := range hs {
		st.acts[i] = hs[i].Act
		switch a := hs[i].Act.(type) {
		case *LocalOp[S]:
			for _, s2 := range a.F(cfg.Data) {
				st.taus = append(st.taus, tau[S]{next: m.successor(hs[i].after(s2, m.fusion), sc), op: a})
			}
		case *Request[S]:
			alpha, aid := m.msg(a.Act(cfg.Data))
			st.offers = append(st.offers, offer[S]{req: a, alpha: alpha, head: uint32(i), aid: aid})
		case *Response[S]:
			st.nresp++
		}
	}
	return st
}

// repliesOf returns what the responder configuration peer (record rq,
// possibly nil) answers to the offer's α, in handler order.
func (m *memo[S]) repliesOf(rq *record[S], peer Config[S], o *offer[S], sc *Scratch[S]) []reply[S] {
	t := &sc.tally
	keyed := rq != nil && o.aid != 0
	if keyed {
		for rn := rq.replies.Load(); rn != nil; rn = rn.next {
			if rs := rn.ents; rs[0].aid == o.aid {
				t.replyHit++
				if rs[0].next == nil {
					return nil
				}
				return rs
			}
		}
	}
	t.replyMiss++
	var buf [headScratch]Head[S]
	hs := AppendHeads(buf[:0], peer.Stack, peer.Data)
	var out []reply[S]
	for j := range hs {
		resp, ok := hs[j].Act.(*Response[S])
		if !ok {
			continue
		}
		for _, r := range resp.F(peer.Data, o.alpha) {
			beta, bid := m.msg(r.Msg)
			out = append(out, reply[S]{
				next: m.successor(hs[j].after(r.S, m.fusion), sc),
				resp: resp, beta: beta, aid: o.aid, bid: bid,
			})
		}
	}
	if size := (len(out) + 1) * int(unsafe.Sizeof(reply[S]{})); keyed && m.room(size) {
		add := out
		if len(add) == 0 {
			add = []reply[S]{{aid: o.aid}}
		}
		if !pushRun(m.stripe(rq), &rq.replies, add, func(r *reply[S]) bool { return r.aid == o.aid }) {
			m.release(size)
		}
	}
	return out
}

// contsOf returns the requester's successors once the offer at cfg
// (record rp, possibly nil) hears the reply's β: Ret's accepted states,
// each carried through the head's continuation. Empty means the requester
// refuses β.
func (m *memo[S]) contsOf(rp *record[S], cfg Config[S], o *offer[S], r *reply[S], sc *Scratch[S]) []cont[S] {
	t := &sc.tally
	keyed := rp != nil && r.bid != 0
	if keyed {
		for rn := rp.conts.Load(); rn != nil; rn = rn.next {
			if cs := rn.ents; cs[0].bid == r.bid && cs[0].head == o.head {
				t.contHit++
				if cs[0].next == nil {
					return nil
				}
				return cs
			}
		}
	}
	t.contMiss++
	var out []cont[S]
	if accepted := o.req.Ret(cfg.Data, r.beta); len(accepted) > 0 {
		var buf [headScratch]Head[S]
		hs := AppendHeads(buf[:0], cfg.Stack, cfg.Data)
		out = make([]cont[S], len(accepted))
		for i, s2 := range accepted {
			out[i] = cont[S]{next: m.successor(hs[o.head].after(s2, m.fusion), sc), head: o.head, bid: r.bid}
		}
	}
	if size := (len(out) + 1) * int(unsafe.Sizeof(cont[S]{})); keyed && m.room(size) {
		add := out
		if len(add) == 0 {
			add = []cont[S]{{head: o.head, bid: r.bid}}
		}
		if !pushRun(m.stripe(rp), &rp.conts, add, func(c *cont[S]) bool { return c.bid == r.bid && c.head == o.head }) {
			m.release(size)
		}
	}
	return out
}

// pushRun stores ents as the run of their key (is) at the front of a side
// table's chain, under the record's stripe lock — unless the key already
// has a run, stored by a concurrent enumeration that missed it too: a key
// has one run, and a second would count its entries twice. It reports
// whether it stored ents. The runs already published are not copied: a
// reader walking an older head sees a suffix of the chain.
func pushRun[T any](mu *sync.Mutex, head *atomic.Pointer[chain[T]], ents []T, is func(*T) bool) bool {
	mu.Lock()
	defer mu.Unlock()
	old := head.Load()
	for rn := old; rn != nil; rn = rn.next {
		if is(&rn.ents[0]) {
			return false
		}
	}
	head.Store(&chain[T]{ents: ents, next: old})
	return true
}

// count adds a tally to the index's striped counters; which stripe is
// arbitrary, so concurrent enumerations rarely share one.
func (ix *Index[S]) count(t *tally, stripe uint32) {
	s := &ix.stats[stripe%statStripes]
	for _, c := range [...]struct {
		to *atomic.Int64
		n  uint32
	}{
		{&s.stepHit, t.stepHit}, {&s.stepMiss, t.stepMiss},
		{&s.replyHit, t.replyHit}, {&s.replyMiss, t.replyMiss},
		{&s.contHit, t.contHit}, {&s.contMiss, t.contMiss},
	} {
		if c.n != 0 {
			c.to.Add(int64(c.n))
		}
	}
}

// stepLookups is the number of step-table lookups counted so far.
func (ix *Index[S]) stepLookups() int64 {
	var n int64
	for i := range ix.stats {
		n += ix.stats[i].stepHit.Load() + ix.stats[i].stepMiss.Load()
	}
	return n
}

// MemoStats reports the configuration table's counters.
func (ix *Index[S]) MemoStats() MemoStats {
	s := MemoStats{Interned: ix.interned.Load(), Retired: ix.retired.Load()}
	for i := range ix.memos {
		if m := ix.memos[i].Load(); m != nil {
			s.Configs += int(m.nrec.Load())
			s.Entries += int(m.nent.Load())
			s.Bytes += m.bytes.Load()
		}
	}
	for i := range ix.stats {
		st := &ix.stats[i]
		s.StepHits += st.stepHit.Load()
		s.StepMisses += st.stepMiss.Load()
		s.ReplyHits += st.replyHit.Load()
		s.ReplyMisses += st.replyMiss.Load()
		s.ContHits += st.contHit.Load()
		s.ContMisses += st.contMiss.Load()
	}
	return s
}

// AppendConfig appends cfg's canonical bytes — AppendStack of its stack
// followed by the data encoding NewIndex was given — to dst. For an
// interned configuration they are the record's cached bytes.
func (ix *Index[S]) AppendConfig(dst []byte, cfg Config[S]) []byte {
	if _, r := ix.lookup(cfg); r != nil {
		return append(dst, r.key...)
	}
	return ix.enc(cfg.Data, ix.AppendStack(dst, cfg.Stack))
}
