package telemetry

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"

	"ecocapsule/internal/keyrand"
)

// Tracer records trees of spans whose IDs are pure functions of where the
// span sits: Key(tracer seed, trace, parent span, name, key, ordinal among
// the siblings sharing that name and key). No ID depends on the order in
// which goroutines create siblings with different keys, so a fleet survey
// whose per-capsule reads (keyed by handle) run on a worker pool
// reproduces the same tree byte for byte, provided each key's spans come
// from one goroutine in a fixed order. Tree renders every run of
// consecutive keyed siblings in ascending key order; unkeyed spans render
// where they were created. Wall-clock time is deliberately absent from the
// rendered tree — durations would make goldens flaky — so spans carry
// their measurements as explicit attributes instead.
type Tracer struct {
	seed uint64
	mu   sync.Mutex
	//ecolint:guardedby mu
	roots []*Span
	// rootSeq numbers the roots; it survives Reset, so IDs stay unique over
	// the tracer's lifetime.
	//ecolint:guardedby mu
	rootSeq ordinals
}

// NewTracer returns a tracer whose span IDs derive from seed.
func NewTracer(seed int64) *Tracer {
	return &Tracer{seed: uint64(seed)}
}

// sibling is the class of spans under one parent whose creation order
// numbers them: same name, same key.
type sibling struct {
	name  string
	key   uint64
	keyed bool
}

// ordinals counts the spans created so far per sibling class.
type ordinals map[sibling]uint64

// next returns the ordinal of the class's next span.
func (o *ordinals) next(s sibling) uint64 {
	if *o == nil {
		*o = make(ordinals)
	}
	n := (*o)[s]
	(*o)[s] = n + 1
	return n
}

// derive hashes a span's position in the tree.
func (t *Tracer) derive(trace uint64, parent uint32, s sibling, ord uint64) uint64 {
	keyed := uint64(0)
	if s.keyed {
		keyed = 1
	}
	return keyrand.Key(t.seed, trace, uint64(parent), hashString(s.name), s.key, keyed, ord)
}

// SpanContext identifies one span inside one trace — the part of a span
// that can cross a process (or socket) boundary. A remote receiver feeds it
// to StartRemote to stitch its own spans under the originating trace.
type SpanContext struct {
	TraceID uint64
	SpanID  uint32
}

// Span is one node of a trace tree. Attributes keep insertion order so the
// rendering is deterministic.
type Span struct {
	tracer *Tracer
	trace  uint64
	id     uint32
	attrs  []attr
	kids   []*Span
	ended  bool
	// sibling is the span's class under its parent; kidSeq numbers its
	// children.
	sibling
	kidSeq ordinals
	// remote is set on roots adopted from another process's trace via
	// StartRemote; it names the cross-boundary parent.
	remote *SpanContext
}

type attr struct{ key, val string }

// Start opens a root span under a fresh trace ID.
func (t *Tracer) Start(name string) *Span { return t.start(sibling{name: name}) }

// StartKeyed is Start for a root that may be created concurrently with
// other roots: it renders among its neighbouring keyed roots in key order.
func (t *Tracer) StartKeyed(name string, key uint64) *Span {
	return t.start(sibling{name: name, key: key, keyed: true})
}

func (t *Tracer) start(s sibling) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	trace := t.derive(0, 0, s, t.rootSeq.next(s))
	sp := &Span{tracer: t, trace: trace, id: uint32(keyrand.Mix(trace)), sibling: s}
	t.roots = append(t.roots, sp)
	return sp
}

// StartRemote opens a root span whose parent lives in another process:
// the span joins the parent's trace instead of deriving a fresh trace ID,
// and the rendered tree names the remote parent so the two sides can be
// stitched together by trace and span ID.
func (t *Tracer) StartRemote(name string, parent SpanContext) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := parent
	s := sibling{name: name}
	id := t.derive(parent.TraceID, parent.SpanID, s, t.rootSeq.next(s))
	sp := &Span{tracer: t, trace: parent.TraceID, id: uint32(id), sibling: s, remote: &p}
	t.roots = append(t.roots, sp)
	return sp
}

// Child opens a sub-span inside the parent's trace.
func (s *Span) Child(name string) *Span { return s.child(sibling{name: name}) }

// ChildKeyed is Child for a sub-span that may be created concurrently with
// its siblings (the fleet keys per-capsule reads by handle): it renders
// among its neighbouring keyed siblings in key order.
func (s *Span) ChildKeyed(name string, key uint64) *Span {
	return s.child(sibling{name: name, key: key, keyed: true})
}

func (s *Span) child(c sibling) *Span {
	t := s.tracer
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.derive(s.trace, s.id, c, s.kidSeq.next(c))
	sp := &Span{tracer: t, trace: s.trace, id: uint32(id), sibling: c}
	s.kids = append(s.kids, sp)
	return sp
}

// Context returns the span's propagatable identity. The fields are set at
// creation and never change, so no lock is needed.
func (s *Span) Context() SpanContext {
	return SpanContext{TraceID: s.trace, SpanID: s.id}
}

// Attr records one key=value attribute; the value is rendered with %v.
func (s *Span) Attr(key string, value any) *Span {
	t := s.tracer
	t.mu.Lock()
	defer t.mu.Unlock()
	s.attrs = append(s.attrs, attr{key: key, val: fmt.Sprintf("%v", value)})
	return s
}

// Attrf records one key=value attribute with a format string.
func (s *Span) Attrf(key, format string, args ...any) *Span {
	t := s.tracer
	t.mu.Lock()
	defer t.mu.Unlock()
	s.attrs = append(s.attrs, attr{key: key, val: fmt.Sprintf(format, args...)})
	return s
}

// End marks the span complete. Ending twice is harmless.
func (s *Span) End() {
	t := s.tracer
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ended = true
}

// Tree renders every root span as an indented deterministic tree. Roots
// carry their trace ID (or, for remotely-parented roots, the cross-process
// parent as remote_parent=<trace>/<span>):
//
//	charge [22ca1008] trace=a51f03c9e2b47d10 duration_s=0.4 powered=5
//	inventory [45b23f1a] trace=7741ab0c55e9d2f8 max_rounds=1
//	  round [fe3ddb2a] q=2 slots=4
//	receipt [8d02c511] remote_parent=7741ab0c55e9d2f8/45b23f1a type=status
//
// Unfinished spans are marked so a truncated trace is visible as such.
// Runs of keyed siblings render in key order (see Tracer).
func (t *Tracer) Tree() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var b strings.Builder
	for _, sp := range renderOrder(t.roots) {
		writeSpan(&b, sp, 0)
	}
	return b.String()
}

func writeSpan(b *strings.Builder, s *Span, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	fmt.Fprintf(b, "%s [%08x]", s.name, s.id)
	if depth == 0 {
		if s.remote != nil {
			fmt.Fprintf(b, " remote_parent=%016x/%08x", s.remote.TraceID, s.remote.SpanID)
		} else {
			fmt.Fprintf(b, " trace=%016x", s.trace)
		}
	}
	for _, a := range s.attrs {
		fmt.Fprintf(b, " %s=%s", a.key, a.val)
	}
	if !s.ended {
		b.WriteString(" UNFINISHED")
	}
	b.WriteByte('\n')
	for _, kid := range renderOrder(s.kids) {
		writeSpan(b, kid, depth+1)
	}
}

// renderOrder returns spans with every run of consecutive keyed siblings
// stably sorted by key, so one key's spans keep their creation order.
func renderOrder(spans []*Span) []*Span {
	out := slices.Clone(spans)
	for i := 0; i < len(out); i++ {
		j := i
		for j < len(out) && out[j].keyed {
			j++
		}
		slices.SortStableFunc(out[i:j], func(a, b *Span) int { return cmp.Compare(a.key, b.key) })
		i = j
	}
	return out
}

// hashString is 64-bit FNV-1a.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}
