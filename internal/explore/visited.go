package explore

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
)

// rec is the per-visited-state bookkeeping: the fingerprint hash of the
// parent state and the index of the producing event in the parent's
// (deterministic) successor enumeration. Both are meaningful only when
// Options.Trace is set; eidx is -1 for the initial state.
type rec struct {
	parent uint64
	eidx   int32
}

// recBytes is the visited-set payload per state in compact mode: one slot
// of the table — an 8-byte key, an 8-byte parent hash and a 4-byte event
// index, each in its own array.
const recBytes = 8 + 8 + 4

const (
	// A stripe is grown at a layer barrier when the coming layer could
	// fill it past maxLoad, to the size at which it would be at minLoad.
	minLoad, maxLoad = 0.6, 0.8
	// layerFanout is the number of new states budgeted per frontier state
	// when a stripe is sized for the coming layer. Out-degree has no static
	// bound, so this is an estimate and overflow is the guarantee.
	layerFanout = 4
	// probeLimit is a stripe's hard limit: a probe that has passed this
	// many occupied slots (or every slot of a smaller stripe) stops and
	// the key goes to the stripe's overflow set. At maxLoad a run of 1024
	// occupied slots does not occur in practice.
	probeLimit = 1024
)

// stripeSlots is the capacity a stripe starts at (2.5 KB); tests shrink it
// so that every layer grows.
var stripeSlots = 128

// stripe is one open-addressed section of the visited table: three
// parallel pointer-free arrays probed linearly from a start slot that is
// monotone in the hash. A zero key marks an empty slot.
type stripe struct {
	keys    []uint64
	parents []uint64 // nil once the records have spilled
	eidx    []int32
	// n is the number of keys the stripe holds, settled at the layer
	// barrier from the workers' own counts.
	n int

	// mu guards the slow paths: the overflow set, and in audit mode the
	// whole claim, with the fingerprint strings kept beside the table.
	mu         sync.Mutex
	over       map[uint64]rec
	fps        map[uint64]string
	fpBytes    int64
	collisions int64
}

// visited is the visited set: one table keyed by fingerprint hash, cut
// into stripes by the hash's top bits so that a stripe can be grown,
// snapshotted and restored on its own.
//
// A key is claimed by one CompareAndSwap on its slot; the winner alone
// writes the slot's parent and event index, with plain stores, and nobody
// reads them before the layer barrier, which orders the two. Slots are
// never released, so the outcome of a probe — the key is there, an empty
// slot, or probeLimit occupied slots — can only change from the second
// to the first, and two workers inserting one hash agree on a single
// winner whichever of the three each of them meets. Stripes are resized
// only in settle, at the barrier, when nobody is inserting.
type visited struct {
	stripes []stripe
	shift   uint // a hash's stripe is h >> shift
	audit   bool
	// spilled says the records live on disk (spill.go) and spillTrace that
	// new ones are still wanted: they go to the inserting worker's hot
	// buffer. Both flip only at a layer boundary.
	spilled    bool
	spillTrace bool
	// hot is the spilled records not yet flushed, as spill frames.
	hot []byte

	// The hash 0 cannot mark its own slot; it is kept here and counted in
	// stripe 0.
	zero    atomic.Bool
	zeroRec rec

	grows     int64 // stripes rebuilt
	overflows int64 // keys that went through an overflow set
}

// inserter is one worker's private side of the table: what it inserted
// since the last settle.
type inserter struct {
	added []int32 // new keys per stripe
	hot   []byte  // their records as spill frames, while spillTrace
}

func newVisited(n int, audit bool) *visited {
	if n <= 0 {
		n = 64
	}
	n = 1 << bits.Len(uint(n-1)) // round up to a power of two
	v := &visited{
		stripes: make([]stripe, n),
		shift:   uint(64 - bits.Len(uint(n-1))),
		audit:   audit,
	}
	for i := range v.stripes {
		v.stripes[i].alloc(stripeSlots)
		if audit {
			v.stripes[i].fps = make(map[uint64]string)
		}
	}
	return v
}

func (v *visited) inserter() *inserter {
	return &inserter{added: make([]int32, len(v.stripes))}
}

func (s *stripe) alloc(slots int) {
	s.keys = make([]uint64, slots)
	s.parents = make([]uint64, slots)
	s.eidx = make([]int32, slots)
}

// start is the slot a probe for h begins at: the hash bits below the
// stripe's, read as a fraction of the capacity. It is monotone in h, so a
// stripe's slots are nearly in hash order: a rebuild writes the new
// arrays front to back, and a snapshot sorts an almost sorted list.
func (v *visited) start(h uint64, slots int) int {
	i, _ := bits.Mul64(h<<(64-v.shift), uint64(slots))
	return int(i)
}

// insert records hash h with bookkeeping r and reports whether the state
// was new. In audit mode fp must be the canonical encoding; a known hash
// carried by a different encoding increments the collision counter (the
// state is still treated as visited, keeping audit-mode verdicts
// identical to compact mode).
func (v *visited) insert(in *inserter, h uint64, r rec, fp []byte) bool {
	si := h >> v.shift
	s := &v.stripes[si]
	var fresh bool
	if v.audit {
		s.mu.Lock()
		if fresh = v.claim(s, h, r, true); fresh {
			s.fps[h] = string(fp)
			s.fpBytes += int64(16 + len(fp))
		} else if s.fps[h] != string(fp) {
			s.collisions++
		}
		s.mu.Unlock()
	} else {
		fresh = v.claim(s, h, r, false)
	}
	if fresh {
		in.added[si]++
		if v.spillTrace {
			in.hot = appendSpillRec(in.hot, h, r)
		}
	}
	return fresh
}

// claim makes h a key of s, reporting whether this call did. locked says
// the caller holds s.mu.
func (v *visited) claim(s *stripe, h uint64, r rec, locked bool) bool {
	if h == 0 {
		if !v.zero.CompareAndSwap(false, true) {
			return false
		}
		v.zeroRec = r
		return true
	}
	keys := s.keys
	i := v.start(h, len(keys))
	for range min(len(keys), probeLimit) {
		k := atomic.LoadUint64(&keys[i])
		if k == 0 {
			if atomic.CompareAndSwapUint64(&keys[i], 0, h) {
				if s.parents != nil {
					s.parents[i], s.eidx[i] = r.parent, r.eidx
				}
				return true
			}
			k = atomic.LoadUint64(&keys[i])
		}
		if k == h {
			return false
		}
		if i++; i == len(keys) {
			i = 0
		}
	}
	return s.overflow(h, r, locked)
}

// overflow is claim for a stripe past its hard limit: every probe for h
// ends here until the next barrier, so the overflow set alone decides.
func (s *stripe) overflow(h uint64, r rec, locked bool) bool {
	if !locked {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	if _, ok := s.over[h]; ok {
		return false
	}
	if s.over == nil {
		s.over = make(map[uint64]rec)
	}
	s.over[h] = r
	return true
}

// lookup returns h's record. Only between layers: it reads payload
// without synchronization. Of a spilled table it reports membership alone
// (the record, if retained at all, is in the hot buffer or on disk).
func (v *visited) lookup(h uint64) (rec, bool) {
	if h == 0 {
		return v.zeroRec, v.zero.Load()
	}
	s := &v.stripes[h>>v.shift]
	i := v.start(h, len(s.keys))
	for range min(len(s.keys), probeLimit) {
		switch s.keys[i] {
		case h:
			if s.parents == nil {
				return rec{}, true
			}
			return rec{parent: s.parents[i], eidx: s.eidx[i]}, true
		case 0:
			return rec{}, false
		}
		if i++; i == len(s.keys) {
			i = 0
		}
	}
	r, ok := s.over[h]
	return r, ok
}

// fold is the first half of the table's part of the layer barrier: it
// folds the workers' counts into the stripes, collects their hot records,
// and returns the stripes that have to be rebuilt before the coming layer
// of frontier states — one with an overflow set to merge, or one that
// layer could fill past maxLoad — with the room (head) each is to be given.
func (v *visited) fold(ins []*inserter, frontier int) (due []*stripe, head int) {
	for _, in := range ins {
		for i, a := range in.added {
			v.stripes[i].n += int(a)
		}
		clear(in.added)
		v.hot = append(v.hot, in.hot...)
		in.hot = in.hot[:0]
	}
	head = layerFanout*frontier/len(v.stripes) + 16
	for i := range v.stripes {
		s := &v.stripes[i]
		v.overflows += int64(len(s.over))
		if len(s.over) > 0 || float64(s.n+head) > maxLoad*float64(len(s.keys)) {
			due = append(due, s)
		}
	}
	v.grows += int64(len(due))
	return due, head
}

// settle is fold and the rebuilds it asks for, one stripe after another;
// the search's own barrier shares the rebuilds among its workers.
func (v *visited) settle(ins []*inserter, frontier int) {
	due, head := v.fold(ins, frontier)
	for _, s := range due {
		v.rebuild(s, head)
	}
}

// reserve makes room in stripe i for n more keys (a snapshot's) before
// they are inserted.
func (v *visited) reserve(i, n int) {
	s := &v.stripes[i]
	if float64(s.n+n) > maxLoad*float64(len(s.keys)) {
		v.rebuild(s, n)
	}
}

// rebuild moves s, overflow set included, into arrays sized so that head
// more keys leave it at minLoad. The old arrays are walked in slot order,
// which is nearly hash order, so the new ones fill front to back.
func (v *visited) rebuild(s *stripe, head int) {
	keys, parents, eidx := s.keys, s.parents, s.eidx
	slots := max(stripeSlots, int(float64(s.n+head)/minLoad)+1)
	s.keys = make([]uint64, slots)
	if parents != nil {
		s.parents = make([]uint64, slots)
		s.eidx = make([]int32, slots)
	}
	put := func(h uint64, r rec) {
		i := v.start(h, slots)
		for n := 0; s.keys[i] != 0; n++ {
			if n == slots {
				panic(fmt.Sprintf("explore: visited stripe of %d slots is full while rebuilding it for %d keys", slots, s.n))
			}
			if i++; i == slots {
				i = 0
			}
		}
		s.keys[i] = h
		if s.parents != nil {
			s.parents[i], s.eidx[i] = r.parent, r.eidx
		}
	}
	for i, h := range keys {
		if h == 0 {
			continue
		}
		var r rec
		if parents != nil {
			r = rec{parent: parents[i], eidx: eidx[i]}
		}
		put(h, r)
	}
	for h, r := range s.over {
		put(h, r)
	}
	s.over = nil
}

// entry is one key of the table with its record.
type entry struct {
	hash uint64
	rec
}

// entries returns stripe i's keys and records in ascending hash order: the
// canonical form a snapshot stores. Only between layers, of a table whose
// records have not spilled.
func (v *visited) entries(i int) []entry {
	s := &v.stripes[i]
	out := make([]entry, 0, s.n)
	if i == 0 && v.zero.Load() {
		out = append(out, entry{0, v.zeroRec})
	}
	for j, h := range s.keys {
		if h != 0 {
			out = append(out, entry{h, rec{parent: s.parents[j], eidx: s.eidx[j]}})
		}
	}
	for h, r := range s.over {
		out = append(out, entry{h, r})
	}
	slices.SortFunc(out, func(a, b entry) int {
		switch {
		case a.hash < b.hash:
			return -1
		case a.hash > b.hash:
			return 1
		}
		return 0
	})
	return out
}

// spillConvert switches the table to its spilled representation: the key
// arrays stay where they are and the two payload arrays go — at once when
// the records are not wanted (keep false), else stripe by stripe as
// drainRecords hands them to the spill file. Runs only at a layer
// boundary (no workers), like dropAudit.
func (v *visited) spillConvert(keep bool) {
	v.spilled, v.spillTrace = true, keep
	if keep {
		return
	}
	for i := range v.stripes {
		v.stripes[i].parents, v.stripes[i].eidx = nil, nil
	}
}

// drainRecords appends the records stripe i still holds in memory to dst,
// as spill frames, and releases its payload arrays.
func (v *visited) drainRecords(i int, dst []byte) []byte {
	s := &v.stripes[i]
	if s.parents == nil {
		return dst
	}
	for _, e := range v.entries(i) {
		dst = appendSpillRec(dst, e.hash, e.rec)
	}
	s.parents, s.eidx = nil, nil
	return dst
}

// dropAudit releases the audit-mode fingerprint strings and switches the
// set to hash-only operation. Callers invoke it only at a layer boundary
// (no workers running), so flipping v.audit is race-free.
func (v *visited) dropAudit() {
	for i := range v.stripes {
		v.stripes[i].fps, v.stripes[i].fpBytes = nil, 0
	}
	v.audit = false
}

// TableStats describes the visited table when the run ended.
type TableStats struct {
	// Slots is the table's capacity and Load the fraction of it in use.
	Slots int
	Load  float64
	// Grows counts the stripes rebuilt at layer barriers, and Overflows
	// the keys that met a stripe past its hard limit and went through its
	// overflow set: the sizing estimate was too low for their layer.
	Grows, Overflows int64
}

func (v *visited) stats() TableStats {
	t := TableStats{Grows: v.grows, Overflows: v.overflows}
	n := 0
	for i := range v.stripes {
		t.Slots += len(v.stripes[i].keys)
		n += v.stripes[i].n
	}
	t.Load = float64(n) / float64(t.Slots)
	return t
}

// bytes is the payload the set retains: a deterministic function of the
// keys held (and, in audit mode, their fingerprints), not of the table's
// capacity.
func (v *visited) bytes() (n int64) {
	per := int64(recBytes)
	if v.spilled {
		per = spillKeyBytes
	}
	for i := range v.stripes {
		n += int64(v.stripes[i].n)*per + v.stripes[i].fpBytes
	}
	return n
}
