package explore

import (
	"cmp"
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

// recBytes is the visited-set payload per state: one slot of the table —
// an 8-byte key, an 8-byte parent hash and a 4-byte event index, each in
// its own segments.
const recBytes = 8 + 8 + 4

// A stripe's slots are kept in segments of segSlots: slot i is entry
// i&segMask of segment i>>segBits.
const (
	segBits  = 10
	segSlots = 1 << segBits
	segMask  = segSlots - 1
)

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

// stripe is one open-addressed section of the visited table, probed
// linearly from a start slot that is monotone in the hash: slots slots,
// each a key, a parent hash and an event index, held in three parallel
// lists of pointer-free segments (the last segment shorter when slots is
// not a multiple of segSlots). A zero key marks an empty slot.
type stripe struct {
	slots   int
	keys    [][]uint64
	parents [][]uint64 // nil once the records have spilled
	eidx    [][]int32
	// n is the number of keys the stripe holds, settled at the layer
	// barrier from the workers' own counts.
	n int

	// mu guards the slow path, the overflow set.
	mu   sync.Mutex
	over map[uint64]rec
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
	// logged says a checkpoint log is open: every inserter keeps the
	// records it adds for the log's next segment. spilled says the payload
	// arrays are gone (spill.go): the records are in the log and in those
	// buffers. Both flip only at a layer boundary.
	logged  bool
	spilled bool

	// The hash 0 cannot mark its own slot; it is kept here and counted in
	// stripe 0.
	zero    atomic.Bool
	zeroRec rec

	grows     int64 // stripes rebuilt
	overflows int64 // keys that went through an overflow set

	pool segPool
}

// segPool holds the table's spare segments. A rebuild takes the new
// stripe's segments from it and gives the old stripe's back, so growing
// the table allocates about its final size once rather than every size it
// passes through. Rebuilds run concurrently (explorer.share), so the pool
// has a lock; nothing else touches it.
type segPool struct {
	mu            sync.Mutex
	keys, parents [][]uint64 // key segments are zero
	eidx          [][]int32
}

// inserter is one worker's private side of the table: what it inserted
// since the last settle, and while the table is logged, the records it
// inserted since the last cut.
type inserter struct {
	added []int32   // new keys per stripe
	recs  [][]entry // per stripe, the records since the last cut
}

func newVisited(n int) *visited {
	if n <= 0 {
		n = 64
	}
	n = 1 << bits.Len(uint(n-1)) // round up to a power of two
	v := &visited{
		stripes: make([]stripe, n),
		shift:   uint(64 - bits.Len(uint(n-1))),
	}
	for i := range v.stripes {
		v.alloc(&v.stripes[i], stripeSlots, true)
	}
	return v
}

func (v *visited) inserter() *inserter {
	return &inserter{added: make([]int32, len(v.stripes)), recs: make([][]entry, len(v.stripes))}
}

// alloc gives s slots empty slots, with records when recs is set.
func (v *visited) alloc(s *stripe, slots int, recs bool) {
	p := &v.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	s.slots = slots
	s.keys = segments(&p.keys, slots)
	s.parents, s.eidx = nil, nil
	if recs {
		s.parents = segments(&p.parents, slots)
		s.eidx = segments(&p.eidx, slots)
	}
}

// free gives a stripe's old segments back to the pool, key segments
// cleared.
func (v *visited) free(keys, parents [][]uint64, eidx [][]int32) {
	for _, seg := range keys {
		if cap(seg) == segSlots {
			clear(seg[:segSlots])
		}
	}
	p := &v.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	p.keys = release(p.keys, keys)
	p.parents = release(p.parents, parents)
	p.eidx = release(p.eidx, eidx)
}

// segments cuts slots slots into segments, taking spare ones from free.
// A short last segment the pool cannot supply is made to its length
// rather than a full segment's, and is garbage once the stripe grows.
func segments[T any](free *[][]T, slots int) [][]T {
	segs := make([][]T, 0, (slots+segMask)>>segBits)
	for lo := 0; lo < slots; lo += segSlots {
		n := min(segSlots, slots-lo)
		var seg []T
		if k := len(*free); k > 0 {
			seg, *free = (*free)[k-1][:n], (*free)[:k-1]
		} else {
			seg = make([]T, n)
		}
		segs = append(segs, seg)
	}
	return segs
}

// release appends segs' full-size segments to free.
func release[T any](free [][]T, segs [][]T) [][]T {
	for _, seg := range segs {
		if cap(seg) == segSlots {
			free = append(free, seg[:segSlots])
		}
	}
	return free
}

// slot is the key of slot i.
func (s *stripe) slot(i int) *uint64 { return &s.keys[i>>segBits][i&segMask] }

// rec is slot i's record; set writes it.
func (s *stripe) rec(i int) rec {
	return rec{parent: s.parents[i>>segBits][i&segMask], eidx: s.eidx[i>>segBits][i&segMask]}
}

func (s *stripe) set(i int, r rec) {
	s.parents[i>>segBits][i&segMask], s.eidx[i>>segBits][i&segMask] = r.parent, r.eidx
}

// start is the slot a probe for h begins at: the hash bits below the
// stripe's, read as a fraction of the capacity. It is monotone in h, so a
// stripe's slots are nearly in hash order: a rebuild writes the new
// segments front to back, and a snapshot sorts an almost sorted list.
func (v *visited) start(h uint64, slots int) int {
	i, _ := bits.Mul64(h<<(64-v.shift), uint64(slots))
	return int(i)
}

// insert records hash h with bookkeeping r and reports whether the state
// was new.
func (v *visited) insert(in *inserter, h uint64, r rec) bool {
	si := h >> v.shift
	if !v.claim(&v.stripes[si], h, r) {
		return false
	}
	in.added[si]++
	if v.logged {
		in.recs[si] = append(in.recs[si], entry{h, r})
	}
	return true
}

// claim makes h a key of s, reporting whether this call did.
func (v *visited) claim(s *stripe, h uint64, r rec) bool {
	if h == 0 {
		if !v.zero.CompareAndSwap(false, true) {
			return false
		}
		v.zeroRec = r
		return true
	}
	slots := s.slots
	i := v.start(h, slots)
	for range min(slots, probeLimit) {
		key := s.slot(i)
		k := atomic.LoadUint64(key)
		if k == 0 {
			if atomic.CompareAndSwapUint64(key, 0, h) {
				if s.parents != nil {
					s.set(i, r)
				}
				return true
			}
			k = atomic.LoadUint64(key)
		}
		if k == h {
			return false
		}
		if i++; i == slots {
			i = 0
		}
	}
	return s.overflow(h, r)
}

// overflow is claim for a stripe past its hard limit: every probe for h
// ends here until the next barrier, so the overflow set alone decides.
func (s *stripe) overflow(h uint64, r rec) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
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
// (the record is in the checkpoint log or an inserter's buffer).
func (v *visited) lookup(h uint64) (rec, bool) {
	if h == 0 {
		return v.zeroRec, v.zero.Load()
	}
	s := &v.stripes[h>>v.shift]
	i := v.start(h, s.slots)
	for range min(s.slots, probeLimit) {
		switch *s.slot(i) {
		case h:
			if s.parents == nil {
				return rec{}, true
			}
			return s.rec(i), true
		case 0:
			return rec{}, false
		}
		if i++; i == s.slots {
			i = 0
		}
	}
	r, ok := s.over[h]
	return r, ok
}

// fold is the first half of the table's part of the layer barrier: it
// folds the workers' counts into the stripes and returns the stripes that have to be rebuilt before the coming layer
// of frontier states — one with an overflow set to merge, or one that
// layer could fill past maxLoad — with the room (head) each is to be given.
func (v *visited) fold(ins []*inserter, frontier int) (due []*stripe, head int) {
	for _, in := range ins {
		for i, a := range in.added {
			v.stripes[i].n += int(a)
		}
		clear(in.added)
	}
	head = layerFanout*frontier/len(v.stripes) + 16
	for i := range v.stripes {
		s := &v.stripes[i]
		v.overflows += int64(len(s.over))
		if len(s.over) > 0 || float64(s.n+head) > maxLoad*float64(s.slots) {
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
	if float64(s.n+n) > maxLoad*float64(s.slots) {
		v.rebuild(s, n)
	}
}

// rebuild moves s, overflow set included, into segments sized so that
// head more keys leave it at minLoad, and gives the old ones back to the
// pool. The old segments are walked in slot order, which is nearly hash
// order, so the new ones fill front to back.
func (v *visited) rebuild(s *stripe, head int) {
	keys, parents, eidx := s.keys, s.parents, s.eidx
	slots := max(stripeSlots, int(float64(s.n+head)/minLoad)+1)
	v.alloc(s, slots, parents != nil)
	put := func(h uint64, r rec) {
		i := v.start(h, slots)
		for n := 0; *s.slot(i) != 0; n++ {
			if n == slots {
				panic(fmt.Sprintf("explore: visited stripe of %d slots is full while rebuilding it for %d keys", slots, s.n))
			}
			if i++; i == slots {
				i = 0
			}
		}
		*s.slot(i) = h
		if s.parents != nil {
			s.set(i, r)
		}
	}
	for j, seg := range keys {
		for k, h := range seg {
			if h == 0 {
				continue
			}
			var r rec
			if parents != nil {
				r = rec{parent: parents[j][k], eidx: eidx[j][k]}
			}
			put(h, r)
		}
	}
	for h, r := range s.over {
		put(h, r)
	}
	s.over = nil
	v.free(keys, parents, eidx)
}

// entry is one key of the table with its record.
type entry struct {
	hash uint64
	rec
}

func byHash(a, b entry) int { return cmp.Compare(a.hash, b.hash) }

// entries returns stripe i's keys and records in ascending hash order: the
// canonical form a snapshot stores. Only between layers, of a table that
// has not spilled.
func (v *visited) entries(i int) []entry {
	s := &v.stripes[i]
	out := make([]entry, 0, s.n)
	if i == 0 && v.zero.Load() {
		out = append(out, entry{0, v.zeroRec})
	}
	for j, seg := range s.keys {
		for k, h := range seg {
			if h != 0 {
				out = append(out, entry{h, rec{parent: s.parents[j][k], eidx: s.eidx[j][k]}})
			}
		}
	}
	for h, r := range s.over {
		out = append(out, entry{h, r})
	}
	slices.SortFunc(out, byHash)
	return out
}

// sinceCut sorts, in place, every inserter's records of stripe i inserted
// since the last cut, and returns their count and a function that yields
// their merge in ascending hash order. Only between layers.
func sinceCut(ins []*inserter, i int) (int, func(yield func(j int, en entry))) {
	var runs [][]entry
	n := 0
	for _, in := range ins {
		if r := in.recs[i]; len(r) > 0 {
			slices.SortFunc(r, byHash)
			runs = append(runs, r)
			n += len(r)
		}
	}
	return n, func(yield func(int, entry)) {
		for j := range n {
			k := 0
			for m := 1; m < len(runs); m++ {
				if runs[m][0].hash < runs[k][0].hash {
					k = m
				}
			}
			yield(j, runs[k][0])
			if runs[k] = runs[k][1:]; len(runs[k]) == 0 {
				runs = slices.Delete(runs, k, k+1)
			}
		}
	}
}

// cut empties the inserter's buffers: a segment holds their records, or
// the next cut rewrites the log whole.
func (in *inserter) cut() {
	for i := range in.recs {
		in.recs[i] = in.recs[i][:0]
	}
}

// spill releases the record segments, the pool's spares included,
// leaving the keys as the membership set. Only at a layer boundary, once
// the checkpoint log holds every record.
func (v *visited) spill() {
	for i := range v.stripes {
		v.stripes[i].parents, v.stripes[i].eidx = nil, nil
	}
	v.pool.parents, v.pool.eidx = nil, nil
	v.spilled = true
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
		t.Slots += v.stripes[i].slots
		n += v.stripes[i].n
	}
	t.Load = float64(n) / float64(t.Slots)
	return t
}

// bytes is the payload the set retains: a deterministic function of the
// keys held, not of the table's capacity.
func (v *visited) bytes() (n int64) {
	per := int64(recBytes)
	if v.spilled {
		per = spillKeyBytes
	}
	for i := range v.stripes {
		n += int64(v.stripes[i].n) * per
	}
	return n
}
