// Package conc provides the bounded work-stealing pool the fleet, link
// and reader layers use to spread independent work items over the
// available cores, and FreeList, through which the waveform path's large
// scratch buffers are recycled.
//
// # Determinism contract
//
// Callers own determinism. Queues hands items to workers through
// per-queue atomic cursors and work stealing, so the assignment of items
// to goroutines — and the order in which bodies run — is
// scheduler-dependent and changes run to run. What Queues guarantees is
// exactly this:
//
//   - fn(q, item) is called exactly once for every item in
//     [0, counts[q]) of every queue q, never for any other pair, and
//     Queues returns only after every call has finished;
//   - a body must write its result into a per-item slot
//     (out[q][item] = ...), never append to or mutate shared state, and
//     must not care about execution order;
//   - merging the slots afterwards in index order then reproduces the
//     serial result byte for byte, at any GOMAXPROCS, including the
//     one-worker inline path.
//
// The pool draws no randomness: a worker whose home queue drains scans
// for a steal victim from the next queue on, so scheduling is a pure
// function of the cursors and never touches a caller's seeded streams.
// For is the one-item-per-queue case and carries the same contract.
//
// The closurecapture analyzer (internal/analysis) checks the slot
// discipline statically on Queues and For bodies: a body that mutates
// captured shared state without a lock is an ecolint finding, which
// verify.sh's ecolint stage fails on.
//
// A panic inside a body is re-raised on the caller's goroutine after the
// remaining workers drain, so a fan-out never deadlocks on a dead worker
// and the failure surfaces where the Queues or For call is.
package conc

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// cursor is one queue's claim cursor, padded to a cache line of its own:
// every claim is an atomic add, and workers draining neighbouring queues
// would otherwise contend on one shared line.
type cursor struct {
	atomic.Int64
	_ [56]byte
}

// bodyPanic wraps a panic value recovered on a worker so the re-raise
// distinguishes "fn panicked" from an unrelated runtime fault.
type bodyPanic struct{ v any }

// Queues runs fn(q, item) for every item in [0, counts[q]) of every queue q,
// using up to min(GOMAXPROCS, len(counts), total items) goroutines with
// per-queue work queues and stealing. It is the fan-out primitive for
// sharded passes: each queue is one shard's batch, a worker drains its own
// queue first (locality — one shard's items touch one shard's readers and
// caches), then steals from the next queue with work left and stays on it,
// so a skewed shard does not serialise the pass. Home queues are spread
// evenly over the queue order: neighbouring shards share boundary
// stations, which workers would otherwise contend on, and the spread also
// starts the steal scans at different queues. One worker runs every item
// inline on the caller's goroutine, in queue then item order.
func Queues(counts []int, fn func(q, item int)) {
	total := 0
	for _, c := range counts {
		total += c
	}
	if total <= 0 {
		return
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(counts) {
		workers = len(counts)
	}
	if workers > total {
		workers = total
	}
	if workers <= 1 {
		for q, c := range counts {
			for item := 0; item < c; item++ {
				fn(q, item)
			}
		}
		return
	}
	// One atomic cursor per queue; Add(1)-1 claims the next item. A cursor
	// past the queue's count means the queue is drained.
	cursors := make([]cursor, len(counts))
	var firstPanic atomic.Pointer[bodyPanic]
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(home int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					firstPanic.CompareAndSwap(nil, &bodyPanic{v: r})
				}
			}()
			claim := func(q int) (int, bool) {
				if counts[q] == 0 {
					return 0, false
				}
				item := int(cursors[q].Add(1)) - 1
				return item, item < counts[q]
			}
			for firstPanic.Load() == nil {
				if item, ok := claim(home); ok {
					fn(home, item)
					continue
				}
				// Home queue drained: steal from the next queue with work
				// left, and adopt it as home.
				stole := false
				for off := 1; off < len(counts); off++ {
					q := (home + off) % len(counts)
					if item, ok := claim(q); ok {
						fn(q, item)
						home, stole = q, true
						break
					}
				}
				if !stole {
					return // every queue drained
				}
			}
		}(w * len(counts) / workers)
	}
	wg.Wait()
	if p := firstPanic.Load(); p != nil {
		panic(p.v)
	}
}

// For runs fn(i) for every i in [0, n) and returns when all calls have
// finished: Queues over n single-item queues, so n <= 1 runs inline and
// a panic in fn re-raises on the caller's goroutine.
func For(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	counts := make([]int, n)
	for i := range counts {
		counts[i] = 1
	}
	Queues(counts, func(i, _ int) { fn(i) })
}
