package explore

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/cimp"
	"repro/internal/gcmodel"
	"repro/internal/invariant"
)

// twoStates returns the initial state and a successor with a different
// fingerprint.
func twoStates(t *testing.T, m *gcmodel.Model) (a, b cimp.System[*gcmodel.Local]) {
	t.Helper()
	a = m.Initial()
	fa := string(m.AppendFingerprint(nil, a))
	a.Successors(func(next cimp.System[*gcmodel.Local], _ cimp.Event) {
		if b.Procs == nil && string(m.AppendFingerprint(nil, next)) != fa {
			b = next
		}
	})
	if b.Procs == nil {
		t.Fatal("the initial state has no successor with another fingerprint")
	}
	return a, b
}

// collisions is the auditor's count.
func (a *auditor) collisions() (n int64) {
	for i := range a.stripes {
		n += a.stripes[i].collisions
	}
	return n
}

// TestAuditCountsCollisions is the auditor's negative control: the
// fingerprints of two distinct states recorded under one hash are one
// collision. Recording either again adds none for the first and one for
// the second; the states under their own hashes add none.
func TestAuditCountsCollisions(t *testing.T) {
	m := mustBuild(t, safeCfg())
	a, b := twoStates(t, m)
	fa, fb := m.AppendFingerprint(nil, a), m.AppendFingerprint(nil, b)
	aud := newAuditor(m)
	aud.record(7, fa)
	aud.record(7, fa)
	if n := aud.collisions(); n != 0 {
		t.Fatalf("one state seen twice: %d collisions", n)
	}
	aud.record(7, fb)
	if n := aud.collisions(); n != 1 {
		t.Fatalf("two states under one hash: %d collisions, want 1", n)
	}
	aud.record(7, fa)
	aud.record(7, fb)
	aud.Edge(Edge{To: a, ToHash: m.FingerprintHash(a)})
	aud.State(Node{State: b, Hash: m.FingerprintHash(b)})
	if n := aud.collisions(); n != 2 {
		t.Fatalf("each state again: %d collisions, want 2", n)
	}
}

// TestAuditChecksTheEngineHash: attached to a real run, the auditor
// agrees with the engine's production hash of every state (no panic, no
// collision, the compact counts); fed a hash one bit off, it stops the run
// as a contained panic that names the disagreement.
func TestAuditChecksTheEngineHash(t *testing.T) {
	m := mustBuild(t, safeCfg())
	compact := Run(m, nil, Options{Workers: 2, HashOnly: true})
	for _, flip := range []uint64{0, 1} {
		aud := newAuditor(m)
		tamper := edgeFunc(func(e Edge) error {
			e.ToHash ^= flip
			return aud.Edge(e)
		})
		res := Run(m, nil, Options{Workers: 2, HashOnly: true, Visitors: []Visitor{tamper}})
		if flip == 0 {
			n := aud.collisions()
			if !res.Complete || n != 0 || res.States != compact.States || res.Transitions != compact.Transitions {
				t.Fatalf("honest hashes: complete=%v collisions=%d states=%d transitions=%d, want %d/%d",
					res.Complete, n, res.States, res.Transitions, compact.States, compact.Transitions)
			}
			continue
		}
		pe, ok := res.Err.(*PanicError)
		if res.Stopped != StopPanic || !ok || !strings.Contains(fmt.Sprint(pe.Value), "audit") {
			t.Fatalf("a wrong hash: stopped=%q err=%v, want a contained audit panic", res.Stopped, res.Err)
		}
	}
}

// TestAuditAcrossWorkers: an audited run counts no collision and reaches
// the compact run's counts at one and two workers.
func TestAuditAcrossWorkers(t *testing.T) {
	m := mustBuild(t, safeCfg())
	compact := Run(m, invariant.Safety(), Options{Workers: 1, HashOnly: true})
	for _, workers := range []int{1, 2} {
		res := Run(m, invariant.Safety(), Options{Workers: workers, HashOnly: false})
		if got, want := verdictOf(res), verdictOf(compact); got.states != want.states ||
			got.transitions != want.transitions || got.depth != want.depth || !res.Complete {
			t.Fatalf("workers=%d: audited %+v, compact %+v", workers, got, want)
		}
		if res.HashCollisions != 0 || res.Degraded {
			t.Fatalf("workers=%d: %d collisions, degraded=%v", workers, res.HashCollisions, res.Degraded)
		}
	}
}

// TestResumeParentAuditCheckpoints: the two checkpoints in testdata were
// written by the engine before audit left it, when an audited run kept its
// fingerprints in its checkpoints. audit-fingerprints.ckpt (meta flag
// 0x1, a run of safeCfg stopped at depth 9) carries them, and is refused
// by name. audit-degraded.ckpt (flag 0x2, the same run whose memory
// watchdog dropped the fingerprints at layer 2 and stopped it at layer 6)
// is hash-only, and resumes to the clean audited verdict.
func TestResumeParentAuditCheckpoints(t *testing.T) {
	if _, err := checkpoint.Load("testdata/audit-fingerprints.ckpt"); err == nil || !strings.Contains(err.Error(), "audit-mode checkpoint") {
		t.Fatalf("a checkpoint with fingerprints: err = %v, want it refused by name", err)
	}
	snap, err := checkpoint.Load("testdata/audit-degraded.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	m := mustBuild(t, safeCfg())
	base := Options{HashOnly: false, Workers: 2, Shards: 8, Trace: true}
	clean := Run(m, invariant.Safety(), base)
	opt := base
	opt.Resume = snap
	res := Run(m, invariant.Safety(), opt)
	if res.Err != nil || !res.Complete || !res.Degraded || res.HashCollisions != 0 {
		t.Fatalf("resumed: complete=%v degraded=%v collisions=%d err=%v", res.Complete, res.Degraded, res.HashCollisions, res.Err)
	}
	if got, want := verdictOf(res), verdictOf(clean); got.states != want.states ||
		got.transitions != want.transitions || got.depth != want.depth || got.deadlocks != want.deadlocks {
		t.Fatalf("resumed from the parent's degraded checkpoint:\n got %+v\nwant %+v", got, want)
	}
}
