// Package cfg pins the locksafety analyzer: locks still held when
// control reaches a return. Lock copies are go vet's copylocks check,
// pinned by TestGoVetOwnsLockCopies.
package cfg

import "sync"

type store struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	data map[string]int
}

// earlyReturnLeak is the bug this check exists for: the error path
// returns with mu held.
func (s *store) earlyReturnLeak(key string) int {
	s.mu.Lock()
	v, ok := s.data[key]
	if !ok {
		return -1 // want `s.mu.Lock\(\) locked at line \d+ is still held on this return path`
	}
	s.mu.Unlock()
	return v
}

// fallOffEndLeak never unlocks at all.
func (s *store) fallOffEndLeak(key string, v int) {
	s.mu.Lock()
	s.data[key] = v
} // want `s.mu.Lock\(\) locked at line \d+ is still held on this return path`

// readLockLeak leaks the read half of an RWMutex on the early path.
func (s *store) readLockLeak(key string) int {
	s.rw.RLock()
	if s.data == nil {
		return 0 // want `s.rw.RLock\(\) locked at line \d+ is still held on this return path`
	}
	v := s.data[key]
	s.rw.RUnlock()
	return v
}

// loopBreakLeak exits the loop (and then the function) still holding
// the lock taken in the last iteration.
func (s *store) loopBreakLeak(keys []string) int {
	total := 0
	for _, k := range keys {
		s.mu.Lock()
		v, ok := s.data[k]
		if !ok {
			break
		}
		total += v
		s.mu.Unlock()
	}
	return total // want `s.mu.Lock\(\) locked at line \d+ is still held on this return path`
}

// deferUnlock is the canonical safe form.
func (s *store) deferUnlock(key string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.data[key]
}

// deferInLiteral releases through a deferred closure.
func (s *store) deferInLiteral(key string) int {
	s.mu.Lock()
	defer func() {
		s.mu.Unlock()
	}()
	return s.data[key]
}

// branchBalanced unlocks on every path by hand.
func (s *store) branchBalanced(key string) int {
	s.mu.Lock()
	if v, ok := s.data[key]; ok {
		s.mu.Unlock()
		return v
	}
	s.mu.Unlock()
	return -1
}

// panicPathHeld holds the lock into a panic — the process is dying, not
// leaking, so the check stays quiet.
func (s *store) panicPathHeld(key string) int {
	s.mu.Lock()
	v, ok := s.data[key]
	if !ok {
		panic("missing key: " + key)
	}
	s.mu.Unlock()
	return v
}

// lockStraddle is the double-checked upgrade pattern from the telemetry
// registry: read-lock probe, full-lock insert, all balanced.
func (s *store) lockStraddle(key string) int {
	s.rw.RLock()
	v, ok := s.data[key]
	s.rw.RUnlock()
	if ok {
		return v
	}
	s.rw.Lock()
	defer s.rw.Unlock()
	s.data[key] = 0
	return 0
}

// suppressedHandoff intentionally returns locked (caller unlocks); the
// reasoned directive documents the contract.
func (s *store) suppressedHandoff(key string) int {
	s.mu.Lock()
	//ecolint:ignore locksafety lock handoff: caller is contractually required to call unlockStore
	return s.data[key]
}

func (s *store) unlockStore() { s.mu.Unlock() }
