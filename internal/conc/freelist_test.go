package conc

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestFreeListReusesWhatWasPut: an empty list makes values with New, and a
// Put value is the next Get, most recent first.
func TestFreeListReusesWhatWasPut(t *testing.T) {
	made := 0
	l := FreeList[*int]{New: func() *int { made++; return new(int) }}
	a, b := l.Get(), l.Get()
	if made != 2 || a == b {
		t.Fatalf("two Gets on an empty list made %d values (distinct: %v), want 2 distinct", made, a != b)
	}
	l.Put(a)
	l.Put(b)
	if l.Len() != 2 {
		t.Fatalf("Len %d after two Puts, want 2", l.Len())
	}
	if got := l.Get(); got != b {
		t.Error("Get did not return the most recently Put value")
	}
	if got := l.Get(); got != a {
		t.Error("second Get did not return the earlier Put value")
	}
	if made != 2 || l.Len() != 0 {
		t.Errorf("made %d values, Len %d; want 2 and 0", made, l.Len())
	}
}

// TestFreeListConcurrentBoundedByPeakUsers: goroutines that each hold one
// value at a time, at most k at once, leave at most k values in the list
// and make at most k, whatever goroutine Puts and which one Gets next.
func TestFreeListConcurrentBoundedByPeakUsers(t *testing.T) {
	const k, rounds = 3, 200
	var made atomic.Int32
	l := FreeList[*[64]byte]{New: func() *[64]byte { made.Add(1); return new([64]byte) }}
	sem := make(chan struct{}, k)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				sem <- struct{}{}
				v := l.Get()
				v[0]++ // a value is owned by one user at a time (checked by -race)
				l.Put(v)
				<-sem
			}
		}()
	}
	wg.Wait()
	if n := l.Len(); n > k || int(made.Load()) != n {
		t.Errorf("list holds %d values and made %d, want the same number, at most %d", n, made.Load(), k)
	}
}
