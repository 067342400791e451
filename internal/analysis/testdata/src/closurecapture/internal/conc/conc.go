// Package conc is a fixture stub mirroring the repository's bounded
// work-stealing pool; the closurecapture analyzer recognises Queues and
// For by their "internal/conc" import-path suffix.
package conc

// Queues runs fn(q, item) for every item of every queue on worker
// goroutines.
func Queues(counts []int, fn func(q, item int)) {
	for q, c := range counts {
		for item := 0; item < c; item++ {
			fn(q, item)
		}
	}
}

// For runs fn(i) for every i in [0, n) on worker goroutines.
func For(n int, fn func(i int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}
