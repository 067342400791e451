package analysis

import (
	"go/types"
	"reflect"
	"sync"
)

// A Fact is a piece of information an analyzer derives about a
// package-level object (function, method, var, type) and exports for
// passes over *dependent* packages to consume. The driver analyzes
// packages in dependency order, so by the time a pass asks for a fact
// on an imported object, the defining package's pass has already run.
//
// A fact is a pointer to a struct, and the table keeps the value its
// analyzer exported. ImportObjectFact copies that struct into the
// importer's value, so scalar fields are the importer's own, but map and
// slice fields are shared with the exporter and with every other
// importer: once a fact is exported, neither side may write to them.
type Fact interface {
	// AFact is a marker method; it has no behaviour.
	AFact()
}

// factKey names one fact: the defining package, the object within it,
// and the fact's Go type (one object may carry facts from several
// analyzers).
type factKey struct {
	pkg string
	obj string
	typ reflect.Type
}

// Facts is the cross-package fact table shared by every pass of one
// Run. It is safe for concurrent use: the level schedule
// guarantees dependency order between writers (defining package) and
// readers (dependent packages), and duplicate exports of the same key
// keep the first value, so the table's observable content does not
// depend on goroutine interleaving.
type Facts struct {
	mu sync.RWMutex
	m  map[factKey]Fact
}

// NewFacts returns an empty fact table.
func NewFacts() *Facts {
	return &Facts{m: make(map[factKey]Fact)}
}

// ObjectKey returns the stable intra-package name for a package-level
// object: "F" for a function or var, "T.M" for a method (pointer and
// value receivers collapse to the same key). Objects that cannot cross
// package boundaries — locals, closures — have no key.
func ObjectKey(o types.Object) (string, bool) {
	if o == nil || o.Pkg() == nil {
		return "", false
	}
	if fn, ok := o.(*types.Func); ok {
		sig, ok := fn.Type().(*types.Signature)
		if !ok {
			return "", false
		}
		if recv := sig.Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok {
				return "", false
			}
			return named.Obj().Name() + "." + fn.Name(), true
		}
		if o.Parent() != o.Pkg().Scope() {
			return "", false // function literal bound to a local
		}
		return fn.Name(), true
	}
	if o.Parent() == o.Pkg().Scope() {
		return o.Name(), true
	}
	return "", false
}

// export records a fact for (pkg, objKey). First write wins, which
// keeps the table deterministic when the same package is analyzed
// twice (once for facts, once with its test files merged in).
func (t *Facts) export(pkg, obj string, f Fact) {
	k := factKey{pkg: pkg, obj: obj, typ: reflect.TypeOf(f)}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.m[k]; !ok {
		t.m[k] = f
	}
}

// lookup copies the fact for (pkg, objKey) into f, reporting whether
// one was present.
func (t *Facts) lookup(pkg, obj string, f Fact) bool {
	k := factKey{pkg: pkg, obj: obj, typ: reflect.TypeOf(f)}
	t.mu.RLock()
	stored, ok := t.m[k]
	t.mu.RUnlock()
	if ok {
		reflect.ValueOf(f).Elem().Set(reflect.ValueOf(stored).Elem())
	}
	return ok
}

// ExportObjectFact publishes a fact about obj (which must be a
// package-level object of the pass's own package) for dependent
// packages. Facts about locals are silently dropped — they cannot be
// named across package boundaries.
func (p *Pass) ExportObjectFact(obj types.Object, f Fact) {
	if p.Facts == nil || obj == nil || obj.Pkg() == nil {
		return
	}
	key, ok := ObjectKey(obj)
	if !ok {
		return
	}
	// Facts are filed under the pass's own package path so that the
	// test-augmented variant of a package (checked under the same import
	// path) lands on the same keys as the plain variant.
	p.Facts.export(p.Pkg.Path(), key, f)
}

// ImportObjectFact fills f with a copy of the fact of f's type
// previously exported about obj, reporting whether one exists; the
// copy shares the stored fact's maps and slices (see Fact). It works for
// objects of the current package and of its (transitive) dependencies.
func (p *Pass) ImportObjectFact(obj types.Object, f Fact) bool {
	if p.Facts == nil || obj == nil || obj.Pkg() == nil {
		return false
	}
	key, ok := ObjectKey(obj)
	if !ok {
		return false
	}
	return p.Facts.lookup(obj.Pkg().Path(), key, f)
}
