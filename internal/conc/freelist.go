package conc

import "sync"

// FreeList is a mutex-guarded stack of reusable values: large scratch
// buffers whose users come and go, as a round's capture or a decoder's
// front end. Unlike sync.Pool, a value Put on one goroutine is the next
// Get on any other (sync.Pool keeps it in the putting P's private slot,
// which a Get on another P cannot reach), and a garbage collection does
// not empty the list. A Get on an empty list makes a value with New, so
// the list never holds more values than were ever out at once: it is
// bounded by the peak number of concurrent users, not by how many
// owners share it.
//
// The zero FreeList with New set is ready to use; it must not be copied
// after first use.
type FreeList[T any] struct {
	// New makes a value when the list is empty.
	New func() T

	mu sync.Mutex
	//ecolint:guardedby mu
	free []T
}

// Get takes the most recently returned value, or a new one when none is
// free.
//
//ecolint:hotpath a warm Get pops the stack; only an empty list calls New
func (l *FreeList[T]) Get() T {
	l.mu.Lock()
	if n := len(l.free); n > 0 {
		v := l.free[n-1]
		var zero T
		l.free[n-1] = zero
		l.free = l.free[:n-1]
		l.mu.Unlock()
		return v
	}
	l.mu.Unlock()
	return l.New()
}

// Put returns v to the list for a later Get. The caller must not use v
// afterwards.
//
//ecolint:hotpath the stack grows only to the peak number of values out at once
func (l *FreeList[T]) Put(v T) {
	l.mu.Lock()
	l.free = append(l.free, v)
	l.mu.Unlock()
}

// Len returns the number of values waiting in the list.
func (l *FreeList[T]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.free)
}
