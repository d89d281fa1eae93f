package gcrt

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"
)

// latBuckets is the number of log2-spaced latency histogram buckets;
// bucket i counts durations in [2^(i-1), 2^i) nanoseconds, which covers
// everything up to ~2 minutes.
const latBuckets = 40

// latHist is a lock-free log2 latency histogram.
type latHist struct {
	buckets [latBuckets]atomic.Int64 // gcrt:guard immutable
}

func (h *latHist) record(d time.Duration) {
	n := d.Nanoseconds()
	if n < 0 {
		n = 0
	}
	i := bits.Len64(uint64(n))
	if i >= latBuckets {
		i = latBuckets - 1
	}
	h.buckets[i].Add(1)
}

// percentile returns an upper bound for the p-th percentile (p in
// [0,1]): the top of the histogram bucket the p-th sample falls in.
func (h *latHist) percentile(p float64) time.Duration {
	var total int64
	for i := range h.buckets {
		total += h.buckets[i].Load()
	}
	if total == 0 {
		return 0
	}
	rank := int64(p * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var cum int64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum > rank {
			return time.Duration(int64(1) << uint(i))
		}
	}
	return time.Duration(int64(1) << (latBuckets - 1))
}

// Stats holds the collector's counters. No counter sits on a line that
// two goroutines write: the collector owns Stats, adding per cycle and
// per handshake round and publishing a trace's counts once, when the
// trace ends; each mutator owns a padded mutatorStats. The hot paths — a
// barrier hit, a mark, a scanned object — add to a line their own
// goroutine owns, or to a counts on its stack.
type Stats struct {
	cycles         atomic.Int64 // gcrt:guard atomic
	freed          atomic.Int64 // gcrt:guard atomic
	marked         atomic.Int64 // gcrt:guard atomic
	scanned        atomic.Int64 // gcrt:guard atomic
	markFast       atomic.Int64 // mark() took the no-CAS fast path; gcrt:guard atomic
	markCAS        atomic.Int64 // mark() attempted the CAS; gcrt:guard atomic
	handshakes     atomic.Int64 // gcrt:guard atomic
	handshakeNanos atomic.Int64 // gcrt:guard atomic
	cycleNanos     atomic.Int64 // gcrt:guard atomic
	rootsRounds    atomic.Int64 // gcrt:guard atomic
	steals         atomic.Int64 // successful deque steals (parallel.go); gcrt:guard atomic

	// hsHist is the per-round handshake latency histogram.
	// gcrt:guard immutable
	hsHist latHist
}

func (s *Stats) recordHandshake(d time.Duration) {
	s.handshakeNanos.Add(d.Nanoseconds())
	s.hsHist.record(d)
}

// publish adds a finished trace's counts.
func (s *Stats) publish(c *counts) {
	s.markFast.Add(c.markFast)
	s.markCAS.Add(c.markCAS)
	s.marked.Add(c.marked)
	s.scanned.Add(c.scanned)
	s.steals.Add(c.steals)
}

// counts is a count sink owned by one goroutine for one trace, barrier
// flush or root scan: mark adds to it with plain increments, and the
// owner publishes it once, when the work is done.
type counts struct {
	markFast, markCAS, marked, scanned, steals int64
}

func (c *counts) add(d *counts) {
	c.markFast += d.markFast
	c.markCAS += d.markCAS
	c.marked += d.marked
	c.scanned += d.scanned
	c.steals += d.steals
}

// cacheLine is the padding that keeps a mutator's counters off the lines
// of everything allocated around them.
const cacheLine = 64

// mutatorStats holds the counters a mutator's own operations write: its
// barrier hits, flushes, root marks and TLAB refills. The collector adds
// to them only while serving the parked mutator's handshake. They are
// atomics because Runtime.Stats reads them from other goroutines.
type mutatorStats struct {
	_               [cacheLine]byte
	markFast        atomic.Int64 // gcrt:guard atomic
	markCAS         atomic.Int64 // gcrt:guard atomic
	marked          atomic.Int64 // gcrt:guard atomic
	barrierBuffered atomic.Int64 // gcrt:guard atomic
	barrierFlushes  atomic.Int64 // gcrt:guard atomic
	tlabRefills     atomic.Int64 // gcrt:guard atomic
	_               [cacheLine]byte
}

// publish adds the marks of a flush or root scan. A single barrier mark
// publishes too, so zero counts skip their locked add.
func (s *mutatorStats) publish(c *counts) {
	if c.markFast != 0 {
		s.markFast.Add(c.markFast)
	}
	if c.markCAS != 0 {
		s.markCAS.Add(c.markCAS)
	}
	if c.marked != 0 {
		s.marked.Add(c.marked)
	}
}

// addTo adds the mutator's counters to a snapshot.
func (s *mutatorStats) addTo(snap *StatsSnapshot) {
	snap.MarkFast += s.markFast.Load()
	snap.MarkCAS += s.markCAS.Load()
	snap.Marked += s.marked.Load()
	snap.BarrierBuffered += s.barrierBuffered.Load()
	snap.BarrierFlushes += s.barrierFlushes.Load()
	snap.TLABRefills += s.tlabRefills.Load()
}

// StatsSnapshot is an immutable copy of the counters.
type StatsSnapshot struct {
	// Cycles is the number of completed collection cycles.
	Cycles int64
	// Freed is the total number of objects reclaimed by sweeps.
	Freed int64
	// Marked counts successful (winning) marks.
	Marked int64
	// Scanned counts objects traced (blackened) by the collector.
	Scanned int64
	// MarkFast counts mark() invocations that skipped the CAS because
	// the flag already had the expected value — the §2.3 fast path.
	MarkFast int64
	// MarkCAS counts mark() invocations that attempted the CAS.
	MarkCAS int64
	// Handshakes is the number of handshake rounds completed.
	Handshakes int64
	// HandshakeTime is the cumulative collector-side handshake latency.
	HandshakeTime time.Duration
	// HandshakeP50 and HandshakeP99 are upper bounds on the median and
	// 99th-percentile per-round handshake latency (log2-bucketed).
	HandshakeP50 time.Duration
	HandshakeP99 time.Duration
	// CycleTime is the cumulative collection-cycle duration.
	CycleTime time.Duration
	// RootsRounds counts root-marking handshake rounds: exactly one per
	// cycle for the snapshot collector, one per rescan round for the
	// incremental-update rescanning variant (variants_test.go).
	RootsRounds int64

	// TLABRefills counts per-mutator allocation-cache batch
	// reservations from the sharded free lists.
	TLABRefills int64
	// Steals counts successful work-stealing deque steals during
	// parallel tracing.
	Steals int64
	// BarrierBuffered counts write-barrier targets that entered a
	// per-mutator barrier buffer; BarrierFlushes counts buffer drains.
	BarrierBuffered int64
	BarrierFlushes  int64
}

// snapshot reads the collector's counters; Runtime.Stats adds the
// mutators'.
func (s *Stats) snapshot() StatsSnapshot {
	return StatsSnapshot{
		Cycles:        s.cycles.Load(),
		Freed:         s.freed.Load(),
		Marked:        s.marked.Load(),
		Scanned:       s.scanned.Load(),
		MarkFast:      s.markFast.Load(),
		MarkCAS:       s.markCAS.Load(),
		Handshakes:    s.handshakes.Load(),
		HandshakeTime: time.Duration(s.handshakeNanos.Load()),
		HandshakeP50:  s.hsHist.percentile(0.50),
		HandshakeP99:  s.hsHist.percentile(0.99),
		CycleTime:     time.Duration(s.cycleNanos.Load()),
		RootsRounds:   s.rootsRounds.Load(),
		Steals:        s.steals.Load(),
	}
}

func (s StatsSnapshot) String() string {
	return fmt.Sprintf(
		"cycles=%d freed=%d marked=%d scanned=%d fastpath=%d cas=%d handshakes=%d hsTime=%v hsP50=%v hsP99=%v cycleTime=%v rootsRounds=%d tlabRefills=%d steals=%d barrierBuffered=%d barrierFlushes=%d",
		s.Cycles, s.Freed, s.Marked, s.Scanned, s.MarkFast, s.MarkCAS,
		s.Handshakes, s.HandshakeTime, s.HandshakeP50, s.HandshakeP99,
		s.CycleTime, s.RootsRounds, s.TLABRefills, s.Steals,
		s.BarrierBuffered, s.BarrierFlushes)
}
