// Package discipline is the field-access discipline fixture: a
// miniature of the runtime's shared structs with seeded defects. Every
// `// want "fragment"` comment must be matched by a diagnostic on its
// line, and no other diagnostics may appear.
package discipline

import (
	"sync"
	"sync/atomic"
)

// register is the fixture's shared struct, the one struct the test's
// config lists. stray has no annotation, and the fields after it carry
// one malformed annotation of each kind.
type register struct {
	ticks atomic.Int64 // gcrt:guard atomic
	mu    sync.Mutex   // gcrt:guard atomic
	count int          // gcrt:guard by(mu)
	wl    []int        // gcrt:guard owner(mutator)
	limit int          // gcrt:guard immutable
	label string       // gcrt:guard immutable(register.relabel)
	stray int          // want "has no `gcrt:guard` annotation"
	// gcrt:guard volatile
	odd int // want "unknown class"
	// gcrt:guard by()
	loner int // want "empty by()"
	// gcrt:guard owner()
	orphan int // want "empty owner()"
	// gcrt:guard by(count)
	misguarded int // want "count is not a mutex field"
	// gcrt:guard immutable(reinit)
	frozen int // want "is not a function of this package"
}

// loose is annotated, but no config lists it, so nothing would check
// its annotation.
type loose struct {
	// gcrt:guard atomic
	n int // want "not in the discipline's struct list"
}

// newRegister is the fixture's trusted constructor.
func newRegister() *register {
	r := &register{}
	r.limit = 8
	r.label = "r0"
	r.stray = 1
	return r
}

// relabel is the one function besides the constructor that label's
// immutable(...) list lets write it.
func (r *register) relabel(s string) { r.label = s }

// Tick is clean: the atomic field is touched as a method receiver.
func (r *register) Tick() { r.ticks.Add(1) }

// BadRead copies the atomic field with a plain read.
func (r *register) BadRead() int64 {
	v := r.ticks // want "bypasses the memory-order contract"
	return v.Load()
}

// BadAddr leaks the atomic field's address.
func BadAddr(r *register) *atomic.Int64 {
	return &r.ticks // want "bypasses the memory-order contract"
}

// BadUnlocked writes the guarded counter without the lock.
func (r *register) BadUnlocked() {
	r.count++ // want "outside its critical section"
}

// GoodLocked holds the lock across the write.
func (r *register) GoodLocked() {
	r.mu.Lock()
	r.count++
	r.mu.Unlock()
}

// GoodConditional takes the lock on one branch only; the may-held
// lockset keeps this quiet (the runtime's returnBatch pattern).
func (r *register) GoodConditional(b bool) {
	if b {
		r.mu.Lock()
	}
	r.count++
	if b {
		r.mu.Unlock()
	}
}

// GoodDeferred holds the lock to the end of the function.
func (r *register) GoodDeferred() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.count++
}

// BadSpawn reads the owner-confined work-list inside a goroutine.
func (r *register) BadSpawn() {
	go func() {
		_ = len(r.wl) // want "inside a spawned goroutine literal"
	}()
}

// leak is reachable from spawnLeak's go statement: its owner access
// runs off the owning thread even though it is lexically ordinary.
func leak(r *register) {
	r.wl = nil // want "reachable from a"
}

func spawnLeak(r *register) {
	go leak(r)
}

// poke touches the owner field outside the struct's methods with no
// exemption.
func poke(r *register) {
	r.wl = nil // want "outside register's methods"
}

// audit is exempted for wl by the test's table (the parked-mutator
// protocol in miniature).
func audit(r *register) int { return len(r.wl) }

// bumpLocked is a caller-holds function per the test's Holds entry.
func bumpLocked(r *register) {
	r.count += 2
}

// BadReinit writes the immutable capacity after construction.
func (r *register) BadReinit() {
	r.limit = 16 // want "outside its construction functions"
}
