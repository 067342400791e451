package conc

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
)

// Queues runs fn(q, item) for every item in [0, counts[q]) of every queue q,
// using a bounded worker pool with per-queue work queues and stealing. It is
// the fan-out primitive for sharded passes: each queue is one shard's batch,
// a worker drains its own queue first (locality — one shard's items touch
// one shard's readers and caches), then steals from a random remaining
// queue and stays on it, so a skewed shard does not serialise the pass.
// Home queues are spread evenly over the queue order: neighbouring shards
// share boundary stations, which workers would otherwise contend on.
//
// The determinism contract matches For: fn is called exactly once per
// (q, item), callers write into per-item slots and merge in index order
// afterwards. Steal-victim selection draws from a private RNG seeded with
// seed, so scheduling randomness never touches a caller's seeded streams;
// it perturbs only which goroutine runs an item, which the slot discipline
// makes unobservable.
//
// A panic in fn drains the remaining workers and re-raises on the caller's
// goroutine, exactly like For.
func Queues(counts []int, seed int64, fn func(q, item int)) {
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
	cursors := make([]atomic.Int64, len(counts))
	var firstPanic atomic.Pointer[bodyPanic]
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		// Each worker owns a home queue and a private RNG for victim
		// selection, so there is no shared scheduling state to contend on
		// beyond the cursors themselves.
		go func(home int, rng *rand.Rand) {
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
				// Home queue drained: steal. Start from a random victim so
				// workers fan out over the remaining queues instead of
				// convoying on the lowest index, and adopt it as home.
				stole := false
				start := rng.Intn(len(counts))
				for off := 0; off < len(counts); off++ {
					q := (start + off) % len(counts)
					if q == home {
						continue
					}
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
		}(w*len(counts)/workers, rand.New(rand.NewSource(seed+int64(w))))
	}
	wg.Wait()
	if p := firstPanic.Load(); p != nil {
		panic(p.v)
	}
}
