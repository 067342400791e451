// Package hotalloc is the golden fixture for the hotalloc analyzer:
// Decode is marked //ecolint:hotpath and commits every allocating
// construct the check knows; Accumulate and ring.Push are marked and
// stay entirely on the reuse idioms, so they must be silent.
package hotalloc

import (
	"fmt"

	"hotalloc/pool"
)

// record is boxed and escaped in various ways below.
type record struct {
	n int
}

// sink accepts anything; its body never allocates, so only the boxing
// at its call sites is flagged.
func sink(v interface{}) int {
	if v == nil {
		return 0
	}
	return 1
}

// sink2 is sink for the negative cases.
func sink2(v interface{}) bool {
	return v == nil
}

// first returns xs[0], or dflt when xs is empty. Its arguments are
// passed as their type arguments, never boxed into the any constraint.
func first[E any](xs []E, dflt E) E {
	if len(xs) == 0 {
		return dflt
	}
	return xs[0]
}

// helper allocates directly.
func helper(n int) []float64 {
	return make([]float64, n)
}

// helper2 allocates transitively through helper.
func helper2(n int) []float64 {
	return helper(n + 1)
}

// scale multiplies in place; it never allocates, so hot callers may
// use it freely without a mark.
func scale(xs []float64, k float64) {
	for i := range xs {
		xs[i] *= k
	}
}

// Cold allocates every call but carries no mark: nothing is reported
// here — marked callers see its AllocFact instead.
func Cold() *record {
	return &record{n: 1}
}

// --- positive cases -------------------------------------------------

// Decode is the marked warm path: every allocating construct in its
// body must be called out with its cause.
//
//ecolint:hotpath
func Decode(dst, src []float64, name string, sample record) float64 {
	buf := make([]float64, 16)            // want `make\(\[\]float64\) in hotpath function Decode allocates because a make call`
	p := new(float64)                     // want `new\(\.\.\.\) in hotpath function Decode allocates because a new call`
	idx := []int{0, 1}                    // want `\[\]int\{\.\.\.\} slice literal in hotpath function Decode allocates because a composite literal`
	tab := map[string]int{}               // want `map\[string\]int\{\.\.\.\} map literal in hotpath function Decode allocates because a composite literal`
	r := &record{}                        // want `&record\{\.\.\.\} in hotpath function Decode allocates because a composite literal`
	ys := append([]float64(nil), src...)  // want `append onto a non-reused slice in hotpath function Decode allocates because an append onto a fresh slice`
	f := func() float64 { return dst[0] } // want `function literal capturing dst in hotpath function Decode allocates because a closure`
	n := sink(sample)                     // want `argument sample boxed into interface\{\} in hotpath function Decode allocates because an interface conversion`
	var box interface{}
	box = sample                     // want `sample boxed into interface\{\} in hotpath function Decode allocates because an interface conversion`
	bs := []byte(name)               // want `conversion from string to \[\]byte in hotpath function Decode allocates because a string conversion`
	w1 := helper(3)                  // want `call to helper in hotpath function Decode allocates because it reaches a make call`
	w2 := helper2(3)                 // want `call to helper2 in hotpath function Decode allocates because it reaches a make call via helper`
	g1 := pool.Grow(4)               // want `call to pool\.Grow in hotpath function Decode allocates because it reaches a make call`
	g2 := pool.Indirect(4)           // want `call to pool\.Indirect in hotpath function Decode allocates because it reaches a make call via Grow`
	s := fmt.Sprintf("%d", len(src)) // want `call to fmt\.Sprintf in hotpath function Decode allocates because it reaches fmt\.Sprintf \(formats into fresh allocations\)`
	c := Cold()                      // want `call to Cold in hotpath function Decode allocates because it reaches a composite literal`
	_ = box
	_ = bs
	_ = s
	return buf[0] + *p + float64(idx[0]+tab[name]+r.n+n+c.n) + ys[0] + f() + w1[0] + w2[0] + g1[0] + g2[0]
}

// --- negative cases -------------------------------------------------

// Accumulate is the reuse-idiom warm path: nothing here allocates, so
// the mark produces no findings.
//
//ecolint:hotpath
func Accumulate(dst, src []float64) []float64 {
	dst = append(dst, src...) // reuse idiom: exempt
	total := 0.0
	for _, v := range src {
		total += v
	}
	pool.Fill(dst, total) // hot-certified callee: clean by contract
	sum := pool.Sum(dst)  // allocation-free callee: no fact, no finding
	scale(dst, sum)       // clean local callee
	g := func(a, b float64) float64 { return a + b } // capture-free literal: static func value
	total += first(src, total)                       // generic call: instantiated, no box
	var p *record
	if sink2(p) || sink2(nil) { // pointer and nil ride the interface word: no box
		return dst
	}
	//ecolint:ignore hotalloc deliberate grow on the cold miss path
	cold := make([]float64, len(dst))
	copy(cold, dst)
	cold[0] = g(1, 2)
	return dst
}

// ring exercises the method form of the mark.
type ring struct {
	buf []float64
}

// Push appends through the reuse idiom on the receiver's buffer.
//
//ecolint:hotpath
func (r *ring) Push(v float64) {
	r.buf = append(r.buf, v)
}
