// Package closurecapture is the golden fixture for the async-closure
// auditor: goroutine, conc.Queues and conc.For bodies must not mutate
// captured shared state with no lock held. Capturing a loop variable is
// not a finding: since go 1.22 every iteration has its own.
package closurecapture

import (
	"sync"

	"closurecapture/internal/conc"
)

func use(...interface{}) {}

// --- negative cases: loop-variable capture --------------------------

// rangeCapture reads the range value in the goroutine.
func rangeCapture(xs []int) {
	for _, v := range xs {
		go func() {
			use(v) // ok: per-iteration loop variable
		}()
	}
}

// indexCapture reads a 3-clause loop counter.
func indexCapture(n int) {
	for i := 0; i < n; i++ {
		go func() {
			use(i) // ok: per-iteration loop variable
		}()
	}
}

// rangeKeyCapture reads a map iteration key.
func rangeKeyCapture(m map[string]int) {
	for k := range m {
		go func() {
			use(k) // ok: per-iteration loop variable
		}()
	}
}

// concForLoopCapture launches conc.For bodies from inside a loop whose
// variables the body reads.
func concForLoopCapture(rows [][]float64) {
	for r, row := range rows {
		conc.For(len(row), func(i int) {
			row[i] *= 2 // ok: per-index slot of a per-iteration variable
			use(r)      // ok: per-iteration loop variable
		})
	}
}

// queuesLoopCapture launches conc.Queues bodies from inside a loop whose
// variables the body reads.
func queuesLoopCapture(batches [][]int) {
	for b, counts := range batches {
		conc.Queues(counts, func(q, item int) {
			use(b) // ok: per-iteration loop variable
		})
	}
}

// --- positive cases: unsynchronised mutation ------------------------

// bareCounter increments a captured counter with no lock.
func bareCounter() int {
	n := 0
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		n++ // want `goroutine mutates captured variable n with no lock held`
	}()
	wg.Wait()
	return n
}

// errSmuggle assigns a captured error slot.
func errSmuggle(f func() error) error {
	var err error
	done := make(chan struct{})
	go func() {
		err = f() // want `goroutine mutates captured variable err with no lock held`
		close(done)
	}()
	<-done
	return err
}

// mapWrite stores into a captured map: faults at runtime if another
// goroutine touches it, lock or not on the other side.
func mapWrite(m map[string]int) {
	go func() {
		m["k"] = 1 // want `goroutine writes captured map m without synchronization`
	}()
}

// mapDelete deletes from a captured map.
func mapDelete(m map[string]int) {
	go func() {
		delete(m, "k") // want `goroutine writes captured map m without synchronization`
	}()
}

// sharedAppend grows a shared slice from conc.For workers — the classic
// nondeterministic append race the package comment forbids.
func sharedAppend(n int) []int {
	var out []int
	conc.For(n, func(i int) {
		out = append(out, i) // want `conc\.For body mutates captured variable out with no lock held`
	})
	return out
}

// queuesSharedAppend is sharedAppend on the sharded pool: a Queues body
// appending to a shared slice races exactly like a For body.
func queuesSharedAppend(counts []int) []int {
	var out []int
	conc.Queues(counts, func(q, item int) {
		out = append(out, q) // want `conc\.Queues body mutates captured variable out with no lock held`
	})
	return out
}

// queuesLoopWrite launches conc.Queues bodies from inside a loop: the
// loop gives each body its own b, not its own total.
func queuesLoopWrite(batches [][]int) int {
	total := 0
	for b, counts := range batches {
		conc.Queues(counts, func(q, item int) {
			total += b // want `conc\.Queues body mutates captured variable total with no lock held`
		})
	}
	return total
}

// capturedIndex writes through an index that is NOT closure-local, so
// slots are not provably disjoint.
func capturedIndex(out []int, j int) {
	go func() {
		out[j] = 1 // want `goroutine mutates captured variable out with no lock held`
	}()
}

// fieldWrite mutates a field of a captured struct pointer bare.
type state struct {
	mu    sync.Mutex
	count int
}

func fieldWrite(s *state) {
	go func() {
		s.count = 1 // want `goroutine writes field s\.count of captured s with no lock held`
	}()
}

// mapByIndex writes disjoint keys of a shared map — still a runtime
// fault, unlike disjoint slice slots.
func mapByIndex(m map[int]int, n int) {
	conc.For(n, func(i int) {
		m[i] = i // want `conc\.For body writes captured map m without synchronization`
	})
}

// --- negative cases -------------------------------------------------

// passAsArg rebinds the loop value through the parameter list.
func passAsArg(xs []int) {
	for _, v := range xs {
		go func(v int) {
			use(v) // ok: parameter shadows the loop variable
		}(v)
	}
}

// slotWrites is the sanctioned conc.For pattern: one result slot per
// index, index owned by the closure.
func slotWrites(xs []int) []int {
	out := make([]int, len(xs))
	conc.For(len(xs), func(i int) {
		out[i] = xs[i] * 2 // ok: per-index slot, closure-local index
	})
	return out
}

// queuesSlotWrites is the sanctioned conc.Queues pattern: one slot per
// (queue, item), both indices owned by the closure.
func queuesSlotWrites(shards [][]int) [][]int {
	counts := make([]int, len(shards))
	out := make([][]int, len(shards))
	for q := range shards {
		counts[q] = len(shards[q])
		out[q] = make([]int, len(shards[q]))
	}
	conc.Queues(counts, func(q, item int) {
		out[q][item] = shards[q][item] * 2 // ok: per-item slot, closure-local indices
	})
	return out
}

// underLock mutates shared state while provably holding a mutex.
func underLock(s *state) {
	go func() {
		s.mu.Lock()
		s.count++ // ok: lock held at the write
		s.mu.Unlock()
	}()
}

// localState keeps all mutation inside the closure.
func localState(ch chan<- int) {
	go func() {
		sum := 0
		for i := 0; i < 10; i++ {
			sum += i // ok: sum is closure-local
		}
		ch <- sum
	}()
}

// readOnly captures freely but never writes.
func readOnly(cfg struct{ Name string }, ch chan<- string) {
	go func() {
		ch <- cfg.Name // ok: capture without mutation
	}()
}

// suppressed is the audited escape hatch: single writer, joined before
// any read.
func suppressed() int {
	n := 0
	done := make(chan struct{})
	go func() {
		//ecolint:ignore closurecapture single writer, reader blocks on done before loading
		n = 42 // ok: suppressed with a reason
		close(done)
	}()
	<-done
	return n
}
