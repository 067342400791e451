// Package guardedby is the golden fixture for the guarded-by contract
// checker: every access of an //ecolint:guardedby field on a path that
// does not hold the named mutex must be flagged, and every properly
// locked (or requires-held, or constructor-local) variant must stay
// quiet.
package guardedby

import "sync"

type counter struct {
	mu sync.Mutex
	//ecolint:guardedby mu
	n int
	//ecolint:guardedby mu
	hist map[int]int
}

// --- positive cases -------------------------------------------------

// bumpNoLock writes the guarded field with no lock anywhere in sight.
func (c *counter) bumpNoLock() {
	c.n++ // want `guarded field c\.n is written without holding c\.mu`
}

// readNoLock reads it bare.
func (c *counter) readNoLock() int {
	return c.n // want `guarded field c\.n is read without holding c\.mu`
}

// unlockTooEarly touches the field again after releasing.
func (c *counter) unlockTooEarly() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	c.n++ // want `guarded field c\.n is written without holding c\.mu`
}

// oneArmUnlocked only locks on one branch; the must-held intersection
// at the join is empty.
func (c *counter) oneArmUnlocked(b bool) {
	if b {
		c.mu.Lock()
	}
	c.n++ // want `guarded field c\.n is written without holding c\.mu`
	if b {
		c.mu.Unlock()
	}
}

// mapNoLock deletes from the guarded map bare.
func (c *counter) mapNoLock(k int) {
	delete(c.hist, k) // want `guarded field c\.hist is written without holding c\.mu`
}

// goroutineNoLock holds the lock on the spawning goroutine only; the
// closure runs with nothing held.
func (c *counter) goroutineNoLock() {
	c.mu.Lock()
	defer c.mu.Unlock()
	go func() {
		c.n++ // want `guarded field c\.n is written without holding c\.mu`
	}()
}

// callHelperNoLock calls a requires-held helper bare.
func (c *counter) callHelperNoLock() {
	c.bumpLocked() // want `call to bumpLocked requires c\.mu\.Lock\(\) held`
}

// callFlushNoLock calls a directive-annotated helper bare.
func (c *counter) callFlushNoLock() {
	c.flush() // want `call to flush requires c\.mu\.Lock\(\) held`
}

// badGuard names a field that is not a mutex.
type badGuard struct {
	//ecolint:guardedby missing
	x int // want `guardedby directive names "missing", which is not a sync\.Mutex/RWMutex field of badGuard`
}

// selfGuard annotates the mutex itself.
type selfGuard struct {
	//ecolint:guardedby mu
	mu sync.Mutex // want `guardedby directive on the mutex field "mu" itself`
}

// noName forgets the argument.
type noName struct {
	mu sync.Mutex
	//ecolint:guardedby
	y int // want `guardedby directive names no mutex field`
}

// badReq names a guard the receiver's struct does not have.
//
//ecolint:requiresheld nothere
func (c *counter) badReq() { // want `requiresheld directive names "nothere", which is not a mutex field`
}

// --- negative cases -------------------------------------------------

// bumpLocked is a requires-held helper: its bare access is legal, the
// obligation moves to every call site.
func (c *counter) bumpLocked() {
	c.n++ // ok: Locked-suffix contract
}

// flush declares the same contract by directive instead of by name.
//
//ecolint:requiresheld mu
func (c *counter) flush() {
	c.hist = nil // ok: caller holds c.mu by contract
}

// properLock is the canonical form, helper call included.
func (c *counter) properLock() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	c.bumpLocked() // ok: lock held at the call
}

// lock and unlock are lock wrappers; their Acquires/Releases facts map
// into the caller's frame.
func (c *counter) lock()   { c.mu.Lock() }
func (c *counter) unlock() { c.mu.Unlock() }

// viaWrappers never names sync.Mutex directly and is still provably
// locked.
func (c *counter) viaWrappers() {
	c.lock()
	c.n++ // ok: wrapper's Acquires fact holds here
	c.unlock()
}

// newCounter writes fields of a value that has not been published.
func newCounter() *counter {
	c := &counter{}
	c.n = 1
	c.hist = map[int]int{} // ok: constructor-local, unpublished
	return c
}

// suppressed shows an audited escape hatch.
func (c *counter) suppressed() int {
	//ecolint:ignore guardedby single-writer snapshot read, torn int acceptable for display
	return c.n // ok: suppressed with a reason
}

// --- lock sets across a range loop and a releasing helper -----------

// lockInLoop locks only on an iteration that may never run: an empty xs
// reaches the read with nothing held.
func (c *counter) lockInLoop(xs []bool) int {
	for _, x := range xs {
		if x {
			c.mu.Lock()
			break
		}
	}
	v := c.n // want `guarded field c\.n is read without holding c\.mu`
	c.mu.Unlock()
	return v
}

// finishLocked requires c.mu held and releases it on the way out.
func (c *counter) finishLocked() {
	c.n++
	c.mu.Unlock()
}

// lockThenFinish holds c.mu when the call starts; the helper's release
// happens after its requirement is met.
func (c *counter) lockThenFinish() {
	c.mu.Lock()
	c.finishLocked() // ok: c.mu held at the call
}

// --- case expressions ------------------------------------------------

// caseUnlocked reads c.n in a case expression, which runs like an if
// condition.
func (c *counter) caseUnlocked() bool {
	switch {
	case c.n > 0: // want `guarded field c\.n is read without holding c\.mu`
		return true
	}
	return false
}
