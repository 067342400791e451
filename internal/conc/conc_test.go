package conc

import (
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
)

func TestForVisitsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 64, 1000} {
		visits := make([]atomic.Int32, n)
		For(n, func(i int) { visits[i].Add(1) })
		for i := range visits {
			if got := visits[i].Load(); got != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, got)
			}
		}
	}
}

func TestForNegativeCount(t *testing.T) {
	called := false
	//ecolint:ignore closurecapture the test asserts this body never runs; n < 0 cannot fan out
	For(-3, func(int) { called = true })
	if called {
		t.Error("fn must not run for negative n")
	}
}

func TestForIndexedSlotsMatchSerial(t *testing.T) {
	// The documented pattern: per-index result slots merged in order must
	// reproduce the serial computation exactly.
	const n = 500
	want := make([]int, n)
	for i := range want {
		want[i] = i * i
	}
	got := make([]int, n)
	For(n, func(i int) { got[i] = i * i })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slot %d: got %d want %d", i, got[i], want[i])
		}
	}
}

func TestForBoundedWorkers(t *testing.T) {
	// The pool must never run more than GOMAXPROCS goroutines at once.
	limit := int32(runtime.GOMAXPROCS(0))
	var inFlight, peak atomic.Int32
	For(64, func(int) {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		inFlight.Add(-1)
	})
	if peak.Load() > limit {
		t.Errorf("peak concurrency %d exceeds GOMAXPROCS %d", peak.Load(), limit)
	}
}

func TestForZeroItems(t *testing.T) {
	called := false
	//ecolint:ignore closurecapture the test asserts this body never runs; n = 0 cannot fan out
	For(0, func(int) { called = true })
	if called {
		t.Error("fn must not run for n = 0")
	}
}

func TestForMoreWorkersThanItems(t *testing.T) {
	// GOMAXPROCS almost certainly exceeds 2 here; the pool must clamp to
	// n and still visit every index exactly once.
	for _, n := range []int{2, 3} {
		visits := make([]atomic.Int32, n)
		For(n, func(i int) { visits[i].Add(1) })
		for i := range visits {
			if got := visits[i].Load(); got != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, got)
			}
		}
	}
}

func TestForPanicPropagates(t *testing.T) {
	// A panicking body must surface on the caller's goroutine, not crash
	// the process or deadlock the join.
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic in body was swallowed")
		}
		if r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	For(64, func(i int) {
		if i == 7 {
			panic("boom")
		}
	})
	t.Fatal("For returned instead of panicking")
}

func TestForPanicInline(t *testing.T) {
	// The n == 1 inline path panics straight through too.
	defer func() {
		if r := recover(); r != "inline" {
			t.Fatalf("recovered %v, want inline", r)
		}
	}()
	For(1, func(int) { panic("inline") })
}

func TestQueuesVisitsEveryItemExactlyOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	counts := []int{5, 0, 17, 3, 1}
	var hits [][]atomic.Int32
	for _, c := range counts {
		hits = append(hits, make([]atomic.Int32, c))
	}
	Queues(counts, func(q, item int) {
		hits[q][item].Add(1)
	})
	for q := range hits {
		for item := range hits[q] {
			if n := hits[q][item].Load(); n != 1 {
				t.Errorf("item (%d,%d) visited %d times", q, item, n)
			}
		}
	}
}

func TestQueuesSlotMergeMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	counts := []int{7, 11, 2}
	compute := func(q, item int) int { return q*1000 + item*item }
	want := make(map[[2]int]int)
	for q, c := range counts {
		for item := 0; item < c; item++ {
			want[[2]int{q, item}] = compute(q, item)
		}
	}
	slots := [][]int{make([]int, 7), make([]int, 11), make([]int, 2)}
	Queues(counts, func(q, item int) {
		slots[q][item] = compute(q, item)
	})
	for key, w := range want {
		if got := slots[key[0]][key[1]]; got != w {
			t.Errorf("slot %v = %d, want %d", key, got, w)
		}
	}
}

func TestQueuesStealsFromSkewedQueue(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	}
	// One heavy queue, several empty ones: every worker must end up helping
	// the heavy queue or the pass would serialise.
	counts := []int{200, 0, 0, 0}
	var visited atomic.Int32
	Queues(counts, func(q, item int) {
		if q != 0 {
			t.Errorf("visited phantom item (%d,%d)", q, item)
		}
		visited.Add(1)
	})
	if visited.Load() != 200 {
		t.Fatalf("visited %d/200", visited.Load())
	}
}

func TestQueuesEmptyAndZero(t *testing.T) {
	Queues(nil, func(q, item int) { t.Error("called on nil counts") })
	Queues([]int{0, 0}, func(q, item int) { t.Error("called on empty queues") })
}

func TestQueuesPanicPropagates(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	Queues([]int{50, 50}, func(q, item int) {
		if q == 1 && item == 10 {
			panic("boom")
		}
	})
	t.Fatal("Queues returned instead of panicking")
}

func TestQueuesInlinePathPreservesOrder(t *testing.T) {
	// With one queue and GOMAXPROCS=1 the inline path must run items in
	// ascending order, matching a serial loop.
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	var got []int
	//ecolint:ignore closurecapture GOMAXPROCS=1 runs the body inline on this goroutine, in order; the append is the assertion
	Queues([]int{5}, func(q, item int) { got = append(got, item) })
	for i, v := range got {
		if v != i {
			t.Fatalf("inline order %v", got)
		}
	}
	if len(got) != 5 {
		t.Fatalf("visited %d/5", len(got))
	}
}

// TestQueuesDeterministicSlots pins the determinism contract on the three
// queue shapes production runs: uneven shard queues (fleet survey and
// charge), n single-item queues (For, the waveform round's link fan-out,
// fleet inventory) and one skewed queue among empty ones. Every item runs
// exactly once and the slots, merged in index order, equal the serial
// loop at whatever GOMAXPROCS the test runs under; verify.sh runs it at
// -cpu 1,2,4 under the race detector.
func TestQueuesDeterministicSlots(t *testing.T) {
	single := make([]int, 64)
	for i := range single {
		single[i] = 1
	}
	shapes := []struct {
		name   string
		counts []int
	}{
		{"uneven-shards", []int{5, 0, 17, 3, 1, 40, 2, 9}},
		{"single-item", single},
		{"skewed", []int{0, 0, 300, 0}},
	}
	compute := func(q, item int) int { return q*1_000_003 + item*item }
	for _, sh := range shapes {
		var want []int
		for q, c := range sh.counts {
			for item := 0; item < c; item++ {
				want = append(want, compute(q, item))
			}
		}
		for rep := 0; rep < 20; rep++ {
			slots := make([][]int, len(sh.counts))
			visits := make([][]atomic.Int32, len(sh.counts))
			for q, c := range sh.counts {
				slots[q] = make([]int, c)
				visits[q] = make([]atomic.Int32, c)
			}
			Queues(sh.counts, func(q, item int) {
				visits[q][item].Add(1)
				slots[q][item] = compute(q, item)
			})
			var got []int
			for q := range slots {
				for item, v := range slots[q] {
					if n := visits[q][item].Load(); n != 1 {
						t.Fatalf("%s: item (%d,%d) ran %d times", sh.name, q, item, n)
					}
					got = append(got, v)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s rep %d: merged slots differ from the serial loop", sh.name, rep)
			}
		}
	}
}
